"""Numerical validation of the modular backbone: the odd Jacobi theta
function, its triple-product and transformation laws, the eta multiplier,
the theta-quotient f, and the principal-part growth classification.

Everything is summed by the one theta kernel: eta is theta at (tau, 3 tau)
times an entire phase (Euler's pentagonal series). The multiplier is in
closed form, omega_{h,k} = exp(pi i s(h, k)) with s the Dedekind sum, an
exact 24k-th root of unity, so the theta transformation's rational phases
fold into one ``arithmetic.unit_root``; the eta transformation checks it
numerically, one record per theta-transformation tuple.

One error model covers every ball: a fixed-point complex value, an
exact complex integer at 2^-W with an integer error bound carried beside
it. theta and the triple product's q-Pochhammer side step such values by
a ratio recurrence (_fixed_mul), stop on their own carried terms and add
the truncation tails those terms bound. Every
non-rational exponential, the starting values and all the phases and
prefactors alike, is mpmath's exp charged by one stated trust
(_fixed_exp); a rational-angle root is one entry of arithmetic's root
tables (unit_root), each phase folded into one exponent. Integers carry
their width and balls round at the ambient precision: _fixed_exp,
_fixed_mul and _qpochhammer take W as an argument and read no mp.prec.
Every ball record has one decision rule, _agreement: it fails only when
the two sides' enclosures are disjoint, with no tolerance.
"""

from __future__ import annotations

import math
import random
from math import gcd, isqrt
from typing import NamedTuple

from mpmath import exp, hypot, log, loggamma, mp, mpc, mpf, pi
from mpmath.libmp import fone, mpf_div, mpf_lt, mpf_pow_int, mpf_shift, mpf_sub, round_ceiling, round_floor, to_fixed

from .arithmetic import _GUARD_BITS, decompose, neg_inverse, unit_root
from .numerics import ErrComplex, ErrReal, _fixed_complex, working_precision
from .qseries import q10_series_product

__all__ = [
    "PoleError",
    "theta",
    "eta",
    "omega_hk",
    "f_eval",
    "f_series_agreement",
    "transformation_check_detail",
    "growth_classifier",
    "CheckRecord",
    "validation_suite",
]

DEFAULT_PREC = 256
# theta walks at most this many terms a side
_THETA_TERMS = 10_000


class PoleError(ArithmeticError):
    """A denominator is numerically indistinguishable from zero."""


def _fixed_exp(x, size, w: int) -> tuple[int, int, int]:
    """e^x() as a fixed-point complex value (re, im, err) at 2^-w: both parts
    floored to integers in units of 2^-w, and err an integer bound, in the
    same units, on the modulus of the error.

    Starting-value trust. The zero-argument callable x is formed, and
    exponentiated by mpmath's exp, at p = w + 8 bits. x() takes a few
    roundings there from ingredients of modulus at most size, so it is
    within 4 size 2^-p of the argument meant; exp is within a few ulp of
    its own argument's value, as for the real exp's 2^(_EXP_TRUST - p)
    relative trust (numerics._EXP_TRUST). The value z is therefore within
    |z| (size + 2) 2^(4-p) of the truth, which is at most
    |z| 2^w (size + 2) / 16 units, and the two floors add less than 2."""
    with working_precision(w + 8):
        z = exp(x())
    re, im = to_fixed(z.real._mpf_, w), to_fixed(z.imag._mpf_, w)
    norm = isqrt(re * re + im * im) + 1
    return re, im, ((norm * (int(size) + 3)) >> (w + 4)) + 3


def _fixed_mul(a: tuple[int, int, int], b: tuple[int, int, int], w: int, na=None, nb=None) -> tuple[int, int, int]:
    """The product of two fixed-point complex values (re, im, err) at 2^-w.

    Product charge, in units of 2^-w: if A and B are within ea and eb of
    the true a and b, then |AB - ab| = |(A - a) B + a (B - b)| is at most
    ea |B| + (|A| + ea) eb, which is divided by 2^w and rounded up; the
    floors of both parts add less than 2 units. Norms are bounded above by
    isqrt(re^2 + im^2) + 1, na for A and nb for B, formed here unless given."""
    ar, ai, ea = a
    br, bi, eb = b
    na = na or isqrt(ar * ar + ai * ai) + 1
    nb = nb or isqrt(br * br + bi * bi) + 1
    return (ar * br - ai * bi) >> w, (ar * bi + ai * br) >> w, 2 - ((-(ea * nb + (na + ea) * eb)) >> w)


def _exp_ball(x, size) -> ErrComplex:
    """e^x() as a ball at the ambient precision prec: _fixed_exp at
    W = prec + _GUARD_BITS, rounded once; size bounds the moduli of the
    values x() is formed from. Forming x at prec instead would charge
    about |e^x| (size + 3) 2^(4-prec)."""
    W = mp.prec + _GUARD_BITS
    return _fixed_complex(*_fixed_exp(x, size, W), W, mp.prec)


def theta(w, tau, target_err, prec: int = DEFAULT_PREC) -> ErrComplex:
    """The odd theta series: sum over half-integers n of
    q^(n^2/2) e^(2 pi i n (w + 1/2)), summed until its own terms bound the rest.

    The terms n = s (m + 1/2), s = +-1 and m >= 0, run along two half-lines
    by the ratio recurrence T_(m+1) = T_m R_m, R_(m+1) = R_m q, with
    q = e^(2 pi i tau), T_0 = e^(pi i (tau/4 + s (w + 1/2))) and
    R_0 = -e^(2 pi i (tau + s w)). Each part is summed exactly as integers
    at 2^-W with an integer error bound carried beside every term:

    * the five starting values q, T_0 and R_0 are _fixed_exp at width W,
      which forms each at W + 8 bits and charges its starting-value trust;
    * every later T and R is a _fixed_mul product, whose product charge
      carries the errors of both factors and its floors;
    * the stop: both half-lines are walked in lockstep up to the first M
      where, on each side, |R_M| + e_R <= 2^(W-1) and
      4 |T_M| <= max(floor(2^W target), 4) in units, |.| being the norm
      bound isqrt(re^2 + im^2) + 1 and e the carried error. As |q| < 1,
      every later ratio is at most 1/2, so a side's omitted terms sum to
      at most its tail 2 (|T_M| + e_T), which is added to the bound; the
      two tails come to about the target at most, and the floor of 4
      units lets the walk stop when the target is below the unit;
    * the guard: the carried bounds hold at any W, which only sets their
      size, about M^3 units times the largest term, M being at most the
      walk's cap, _THETA_TERMS. So W is prec + 2 bitlen(cap) + _GUARD_BITS
      plus the bits the unit loses against the sum of the term moduli,
      where float estimates serve: -e when the larger first term
      e^(pi |Im w| - pi Im tau/4) is below 2^e < 1, or, when the terms
      grow (|R_0| > 1), the min(log2 |R_0|, -log2 |q|) bits of q's
      relative error that R_m carries m times into terms near the
      largest. The radius then stays below the two tails plus the sum of
      the moduli times (2M+8) 2^(4-prec).

    Past _THETA_TERMS terms a side the walk raises RuntimeError. The
    total, with the summed bounds plus both tails, is one _fixed_complex
    ball."""
    target = mpf(target_err)
    if not target > 0:
        raise ValueError("target_err must be positive")
    with working_precision(prec):
        w = mpc(w)
        tau = mpc(tau)
        if not tau.imag > 0:
            raise ValueError("tau must lie in the upper half-plane")
        # float estimates: W only sets the size of the carried bounds
        t, beta, ln2 = float(tau.imag), abs(float(w.imag)), math.log(2)
        top = math.floor(math.pi * (beta - t / 4) / ln2) - 1
        lost = math.ceil(2 * math.pi * max(0, min(beta - t, t)) / ln2)
        W = prec + 2 * _THETA_TERMS.bit_length() + _GUARD_BITS + max(-top, lost)
        one, goal = 1 << W, max(to_fixed(target._mpf_, W), 4)
        size = 2 * pi * (abs(tau) + abs(w) + 1)
        q = _fixed_exp(lambda: 2j * pi * tau, size, W)
        nq = isqrt(q[0] * q[0] + q[1] * q[1]) + 1
        walk = []  # (T_m, R_m) per side
        for s in (1, -1):
            term = _fixed_exp(lambda: pi * 1j * (tau / 4 + s * (w + mpf(1) / 2)), size, W)
            rr, ri, rerr = _fixed_exp(lambda: 2j * pi * (tau + s * w), size, W)
            walk.append((term, (-rr, -ri, rerr)))
        re = im = err = 0
        for _ in range(_THETA_TERMS + 1):  # the stop is tested after at most the cap a side
            # |T| and |R| per side, each serving both products
            norms = [(isqrt(tr * tr + ti * ti) + 1, isqrt(r[0] * r[0] + r[1] * r[1]) + 1) for (tr, ti, _), r in walk]
            if all(4 * nt <= goal and 2 * (nr + r[2]) <= one for (nt, nr), (_, r) in zip(norms, walk)):
                tail = sum(2 * (nt + term[2]) for (nt, _), (term, _) in zip(norms, walk))
                return _fixed_complex(re, im, err + tail, W, prec)
            for i, ((term, r), (nt, nr)) in enumerate(zip(walk, norms)):
                re += term[0]
                im += term[1]
                err += term[2]
                walk[i] = _fixed_mul(term, r, W, nt, nr), _fixed_mul(r, q, W, nr, nq)
        raise RuntimeError(f"theta truncation failed to converge in {_THETA_TERMS} terms a side")


def eta(tau, target_err, prec: int = DEFAULT_PREC) -> ErrComplex:
    """Dedekind eta as a theta series: eta(tau) = i e^(pi i tau/3) theta(tau; 3 tau).

    At w = tau and 3 tau, the term at n = m - 1/2 has exponent
    pi i [3 tau n^2 + 2 tau n + n] = pi i [tau (3m^2 - m) - tau/4 + m - 1/2],
    so theta(tau; 3 tau) = -i e^(-pi i tau/4) sum_m (-1)^m q^(m(3m-1)/2).
    Euler's pentagonal theorem gives eta = e^(pi i tau/12) times the same
    sum. The phase i e^(pi i tau/3) = e^(pi i (tau/3 + 1/2)) is entire, so no
    branch is chosen, and its modulus e^(-pi Im(tau)/3) is at most 1, so
    theta's target carries through unchanged."""
    with working_precision(prec):
        tau = mpc(tau)
        if not tau.imag > 0:
            raise ValueError("tau must lie in the upper half-plane")
        phase = _exp_ball(lambda: pi * 1j * (tau / 3 + mpf(1) / 2), pi * (abs(tau) + 1))
        return phase * theta(tau, 3 * tau, target_err, prec)


def omega_hk(h: int, k: int) -> int:
    """The eta multiplier's exponent D = 6k s(h, k), so that
    omega_{h,k} = exp(pi i s(h, k)) = zeta_{12k}^D exactly.

    s is the Dedekind sum: for 0 < r < k the sawtooths are
    ((r/k)) = (2r - k)/2k and ((hr/k)) = (2(hr mod k) - k)/2k, so
    6k s(h, k) = 3 sum_r (2r - k)(2(hr mod k) - k) / 2k, an integer
    (Apostol, Modular Functions and Dirichlet Series, ch. 3)."""
    if k < 1:
        raise ValueError("k must be positive")
    if gcd(h, k) != 1:
        raise ValueError("h must be coprime to k")
    return 3 * sum((2 * r - k) * (2 * (h * r % k) - k) for r in range(1, k)) // (2 * k)


def f_eval(tau, target_err, prec: int = DEFAULT_PREC) -> ErrComplex:
    """The theta quotient theta(tau; 10 tau) / theta(3 tau; 10 tau)."""
    with working_precision(prec):
        tau = mpc(tau)
        target = mpf(target_err)
        num = theta(tau, 10 * tau, target / 4, prec)
        den = theta(3 * tau, 10 * tau, target / 4, prec)
        dabs = den.abs()
        if not dabs.value > dabs.err:
            raise PoleError("theta denominator indistinguishable from zero")
        return num / den


_SERIES_ORDER = 60


def f_series_agreement(tau, prec: int = DEFAULT_PREC) -> "CheckRecord":
    """q^-1 f(tau) against sum_n c_1(n) q^n with q = e^(2 pi i tau): the
    f_eval ball over the q ball, against c_1(0..60) summed on that q ball
    by Horner's rule plus a bound on the rest. The quotient is a product
    of factors (1 - q^n)^(+-1), at most one per n, so |c_1(n)| is at most
    the coefficient of prod 1/(1 - q^n), the partition number
    p(n) <= 2^(n-1) (every partition is a composition). For r >= |q| with
    2r < 1 the rest is thus at most (2r)^61 / (1 - 2r), formed rounded up.

    The coefficients come from the product route, not from ``q10_series``:
    that one is built from this same theta quotient, so comparing against
    it would restate the triple-product identity instead of testing it."""
    params = {"tau": str(tau), "order": _SERIES_ORDER}
    coeffs = q10_series_product(1, _SERIES_ORDER).coeffs
    with working_precision(prec):
        tau = mpc(tau)
        q = _exp_ball(lambda: 2j * pi * tau, 2 * pi * (abs(tau) + 1))
        lhs = f_eval(tau, mpf(2) ** (-prec // 2), prec) / q
        rhs = ErrComplex(0)
        for c in reversed(coeffs):
            rhs = rhs * q + c
        x = mpf_shift(q.abs().hi._mpf_, 1)  # 2r, exact
        if not mpf_lt(x, fone):
            raise ValueError("|q| must be below 1/2 for the series tail bound")
        top = mpf_pow_int(x, _SERIES_ORDER + 1, prec, round_ceiling)
        tail = ErrReal(0, mp.make_mpf(mpf_div(top, mpf_sub(fone, x, prec, round_floor), prec, round_ceiling)))
        return _agreement("series-agreement", params, lhs, rhs + ErrComplex(tail, tail))


def transformation_check_detail(h: int, k: int, z, prec: int = DEFAULT_PREC) -> "CheckRecord":
    """Evaluate both sides of the cusp transformation of f at (h, k, z).

    Left: f((h+iz)/k).  Right: the sign/phase/growth prefactor times the
    quotient of thetas at the transformed arguments, using the cusp data of
    h/k. Decided by _agreement."""
    cusp = decompose(h, k)
    d, hp = cusp.d, cusp.hprime
    with working_precision(prec):
        z = mpc(z)
        if not z.real > 0:
            raise ValueError("Re(z) must be positive")
        target = mpf(2) ** (-prec // 2)
        lhs = f_eval((h + 1j * z) / k, target / 8, prec)

        # the sign (-1)^(h1+nu1+mu1), zeta_{10k}^(3 mu2 - nu2) and
        # e^(2 pi i d^2 (nu1^2 - mu1^2) h' / (20 k)) as one 20k-th root
        odd = (cusp.h1 + cusp.nu1 + cusp.mu1) % 2
        e = 10 * k * odd + 2 * (3 * cusp.mu2 - cusp.nu2) + d * d * (cusp.nu1**2 - cusp.mu1**2) * hp
        phase = unit_root(e, 20 * k, prec)
        # growth e^(pi (mu2^2 - nu2^2) / (10 k z)) times decay e^(-4 pi z / (5 k))
        c = cusp.mu2**2 - cusp.nu2**2
        analytic = _exp_ball(lambda: pi * (c / (10 * k * z) - 4 * z / (5 * k)), pi * (abs(c) / abs(z) + abs(z) + 1))

        tau2 = mpf(d * d) / (10 * k) * (hp + 1j / z)
        w_num = 1j * cusp.nu2 * d / (10 * k * z) - mpf(cusp.nu1 * d * d * hp) / (10 * k) - mpf(d) / (10 * k)
        w_den = 1j * cusp.mu2 * d / (10 * k * z) - mpf(cusp.mu1 * d * d * hp) / (10 * k) - mpf(3 * d) / (10 * k)
        th_num = theta(w_num, tau2, target / 8, prec)
        th_den = theta(w_den, tau2, target / 8, prec)
        dabs = th_den.abs()
        if not dabs.value > dabs.err:
            raise PoleError("transformed theta denominator indistinguishable from zero")

        rhs = phase * analytic * (th_num / th_den)
        return _agreement("cusp-transformation", {"h": h, "k": k, "z": str(z)}, lhs, rhs)


def growth_classifier(d: int, nu2: int, delta: int = 1) -> bool:
    """True iff the cusp class contributes exponential growth for the
    quotient (delta = 1): mu2^2 - nu2^2 + d(nu2 - mu2) > 0 with
    mu2 = 3 nu2 mod d, or for its reciprocal (delta = -1), where the
    expression changes sign."""
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    if d not in (5, 10):
        raise ValueError("d must be 5 or 10")
    if not 0 <= nu2 < d:
        raise ValueError("nu2 must lie in [0, d)")
    if gcd(nu2, d) != 1:
        raise ValueError("nu2 must be coprime to d")
    mu2 = (3 * nu2) % d
    return delta * (mu2 * mu2 - nu2 * nu2 + d * (nu2 - mu2)) > 0


class CheckRecord(NamedTuple):
    check: str
    params: dict
    lhs: str
    rhs: str
    abs_diff: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        record = self._asdict()
        record["pass"] = record.pop("passed")
        return record


def _agreement(check: str, params: dict, lhs: ErrComplex, rhs: ErrComplex) -> CheckRecord:
    """The one rule of the ball records: fail only when the enclosures are
    disjoint, when a part of the ball lhs - rhs (whose radii include its
    own rounding) excludes 0. abs_diff is that ball's midpoint modulus and
    tolerance the hypot of its radii, so a pass has abs_diff <= tolerance."""
    diff = lhs - rhs
    return CheckRecord(
        check=check,
        params=params,
        lhs=mp.nstr(mpc(lhs.re.value, lhs.im.value), 20),
        rhs=mp.nstr(mpc(rhs.re.value, rhs.im.value), 20),
        abs_diff=float(diff.abs().value),
        tolerance=float(hypot(diff.re.err, diff.im.err)),
        passed=diff.re.contains(0) and diff.im.contains(0),
    )


def _qpochhammer(a: tuple[int, int, int], q: tuple[int, int, int], target_rel, w: int) -> tuple[int, int, int]:
    """prod_{j>=0} (1 - a q^j) for fixed-point complex a and q at 2^-w, as
    a fixed-point value (re, im, err) whose bound covers the truncation.

    The partial product and the powers a q^j are _fixed_mul products. With
    |a q^j| <= x and |q| <= y in units, both bounds including the carried
    errors, the loop stops at the first j with 2 x < 2^w and
    s = 2 x / (2^w - y) < target_rel / 2. Every omitted factor then has
    |a q^i| <= 1/2, so |log(1 - a q^i)| <= 2 |a q^i|, and the omitted factors
    multiply the true partial product P by 1 + eta with
    |eta| <= e^s - 1 <= 2 s; 2 s |P| is added to the bound."""
    one = 1 << w
    y = isqrt(q[0] ** 2 + q[1] ** 2) + 1 + q[2]
    if y >= one:
        raise RuntimeError("q-Pochhammer truncation failed to converge")
    goal = to_fixed(target_rel._mpf_, w)  # at most target_rel 2^w
    prod = (one, 0, 0)
    x = a
    for _ in range(100_000):
        nx = isqrt(x[0] ** 2 + x[1] ** 2) + 1 + x[2]
        if 2 * nx < one and 4 * nx * one < goal * (one - y):
            pr, pim, perr = prod
            norm = isqrt(pr * pr + pim * pim) + 1 + perr
            return pr, pim, perr - ((-4 * nx * norm) // (one - y))
        prod = _fixed_mul(prod, (one - x[0], -x[1], x[2]), w)
        x = _fixed_mul(x, q, w, nx - x[2], y - q[2])
    raise RuntimeError("q-Pochhammer truncation failed to converge")


def _triple_product_record(w, tau, prec: int) -> CheckRecord:
    """theta against -i q^(1/8) zeta^(-1/2) (q; q) (zeta; q) (q/zeta; q), the
    three products in fixed point at 2^-W from starting values as in theta."""
    with working_precision(prec):
        w = mpc(w)
        tau = mpc(tau)
        target = mpf(2) ** (-prec // 2)
        lhs = theta(w, tau, target, prec)
        W = prec + _GUARD_BITS
        size = 2 * pi * (abs(tau) + abs(w) + 1)
        q = _fixed_exp(lambda: 2j * pi * tau, size, W)
        prod = _qpochhammer(q, q, target, W)
        for a in (lambda: 2j * pi * w, lambda: 2j * pi * (tau - w)):
            prod = _fixed_mul(prod, _qpochhammer(_fixed_exp(a, size, W), q, target, W), W)
        # -i q^(1/8) zeta^(-1/2) with zeta^(-1/2) = e^(-pi i w), entire in w:
        # theta(w + 1) = -theta(w) while the products have period 1
        pref = _exp_ball(lambda: pi * 1j * (tau / 4 - w - mpf(1) / 2), size)
        rhs = pref * _fixed_complex(*prod, W, prec)
        return _agreement("triple-product", {"w": str(w), "tau": str(tau)}, lhs, rhs)


# (h, k, z, w) for the eta and theta transformation records; z and w are
# (re, im) strings, read at the suite's precision
_MULTIPLIER_TUPLES = [
    (1, 5, ("1",), ("0.3", "0.1")),
    (2, 5, ("0.8",), ("0.2", "-0.1")),
    (3, 5, ("1.1",), ("0.15", "0.05")),
    (1, 10, ("0.9",), ("0.1", "0.2")),
    (3, 10, ("1",), ("0.25", "0.1")),
    (7, 10, ("1.2", "0.3"), ("0.2", "0.1")),
    (9, 10, ("0.7",), ("-0.1", "0.15")),
    (2, 15, ("1",), ("0.3", "-0.05")),
    (4, 15, ("1.3",), ("0.1", "0.1")),
    (7, 20, ("0.85",), ("0.2", "0.05")),
]


def _multiplier_records(h: int, k: int, z, w, prec: int) -> list[CheckRecord]:
    """The eta transformation, which checks the closed-form multiplier
    omega = zeta_{12k}^D numerically, and the theta transformation that
    uses it, at (h, k, z) and theta's argument w, both (re, im) tuples."""
    hp = neg_inverse(h, k)
    D = omega_hk(h, k)
    with working_precision(prec):
        target = mpf(2) ** (-prec // 2)
        z = mpc(*z)
        w = mpc(*w)
        params = {"h": h, "k": k, "z": str(z)}
        # eta((h+iz)/k) = e^(pi i (h-h')/12k) omega^-1 z^(-1/2) eta((h'+i/z)/k)
        lhs = eta((h + 1j * z) / k, target / 4, prec)
        root = _exp_ball(lambda: -log(z) / 2, abs(log(z)) + 1)  # z^(-1/2)
        rhs = unit_root(h - hp - 2 * D, 24 * k, prec) * root * eta((hp + 1j / z) / k, target / 4, prec)
        eta_record = _agreement("eta-transformation", params, lhs, rhs)

        # e^(pi i (h-h')/4k) e^(-3 pi i/4) omega^-3 as one 24k-th root. The
        # constant e^(-3 pi i/4) is forced by the trivial level h=0, k=1
        # with principal branches (the conjugate constant fails by a
        # factor i; it cancels in theta quotients either way)
        lhs = theta(w, (h + 1j * z) / k, target, prec)
        # sqrt(i/z) e^(-pi k w^2/z), principal branch
        size = abs(log(1j / z)) + 2 * pi * k * abs(w * w / z) + 1  # pi k w^2 / z takes five roundings
        pref = _exp_ball(lambda: log(1j / z) / 2 - pi * k * w * w / z, size)
        rhs = (
            unit_root(3 * (h - hp - 3 * k) - 6 * D, 24 * k, prec)
            * pref
            * theta(1j * w / z, (hp + 1j / z) / k, target, prec)
        )
        theta_record = _agreement("theta-transformation", {**params, "w": str(w)}, lhs, rhs)
    return [eta_record, theta_record]


def validation_suite(prec: int = DEFAULT_PREC) -> list[CheckRecord]:
    """The full modular-backbone validation: triple product, quasi-periodicity,
    the eta and theta transformations with the closed-form multiplier, the
    cusp transformation of f, series agreement, the exhaustive growth
    classification and eta(i) in closed form. Runs at max(prec, DEFAULT_PREC) bits."""
    prec = max(prec, DEFAULT_PREC)
    records: list[CheckRecord] = []
    with working_precision(prec):
        target = mpf(2) ** (-prec // 2)

        # triple product at fixed plus pseudo-random points; the stated decimals
        # here and below are read at the suite's precision
        rng = random.Random(271828)
        pts = [(mpc("0.3", "0.1"), mpc("0.2", "0.9"))]
        for _ in range(19):
            w = mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
            tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.4))
            pts.append((w, tau))
        for w, tau in pts:
            records.append(_triple_product_record(w, tau, prec))

        # quasi-periodicity theta(w + lambda tau + mu) = (-1)^(lambda+mu) q^(-lambda^2/2) zeta^(-lambda) theta(w)
        w = mpc("0.23", "0.11")
        tau = mpc("0.13", "0.83")
        base = theta(w, tau, target, prec)
        for lam, mu in ((1, 0), (0, 1), (1, 1), (2, 1)):
            lhs = theta(w + lam * tau + mu, tau, target, prec)
            size = pi * (lam + mu + lam * lam * abs(tau) + 2 * lam * abs(w) + 1)
            fac = _exp_ball(lambda: pi * 1j * (lam + mu - lam * lam * tau - 2 * lam * w), size)
            rhs = fac * base
            records.append(_agreement("quasi-periodicity", {"lambda": lam, "mu": mu}, lhs, rhs))

        # eta and theta transformations with the closed-form multiplier
        for h, k, zz, w in _MULTIPLIER_TUPLES:
            records += _multiplier_records(h, k, zz, w, prec)

        # leading asymptotic of theta(a tau + b; tau): fitted-constant check
        b = mpf("0.2")
        for a in (mpf("0.1"), mpf("0.3")):
            worst = mpf(0)
            for t in (2, 3, 4, 5):
                tau = mpc(0, t)
                q = exp(2j * pi * tau)
                lead = -1j * exp(-pi * 1j * b) * q ** (mpf(1) / 8 - a / 2)
                val = theta(a * tau + b, tau, target, prec)
                ratio = mpc(val.re.value, val.im.value) / lead
                cbound = abs(ratio - 1) / abs(q) ** min(a, 1 - a)
                worst = max(worst, cbound)
            records.append(
                CheckRecord(
                    check="leading-asymptotic",
                    params={"a": float(a), "b": float(b)},
                    lhs=mp.nstr(worst, 8),
                    rhs="10",
                    abs_diff=float(worst),
                    tolerance=10.0,
                    passed=bool(worst < 10),
                )
            )

        # cusp transformation of f at >= 10 parameter tuples
        for h, k, zz in (
            (1, 5, mpc(1)),
            (2, 5, mpc(1)),
            (3, 5, mpc("0.8")),
            (4, 5, mpc("1.2")),
            (1, 10, mpc(1)),
            (3, 10, mpc("0.8")),
            (7, 10, mpc("1.2", "0.3")),
            (9, 10, mpc("0.9")),
            (2, 15, mpc(1)),
            (7, 15, mpc("1.1", "-0.2")),
            (3, 20, mpc("0.95")),
        ):
            records.append(transformation_check_detail(h, k, zz, prec))
        # q^{-1} f vs the integer series
        for tau in (mpc("0.1", "0.5"), mpc("0.37", "0.8")):
            records.append(f_series_agreement(tau, prec))

        # conjugation symmetry f(-conj(tau)) = conj(f(tau))
        for tau in (mpc("0.21", "0.6"), mpc("-0.32", "0.75")):
            lhs = f_eval(-mpc(tau).conjugate(), target, prec)
            rhs = f_eval(tau, target, prec).conjugate()
            records.append(_agreement("conjugation-symmetry", {"tau": str(tau)}, lhs, rhs))

        # exhaustive growth classification against the expected residue sets
        expected = {1: [(5, [2, 3]), (10, [3, 7])], -1: [(5, [1, 4]), (10, [1, 9])]}
        for delta, variant in ((1, "direct"), (-1, "reciprocal")):
            got = [
                (d, [nu2 for nu2 in range(d) if gcd(nu2, d) == 1 and growth_classifier(d, nu2, delta)])
                for d in (5, 10)
            ]
            records.append(
                CheckRecord(
                    check="growth-classification",
                    params={"variant": variant},
                    lhs=str(got),
                    rhs=str(expected[delta]),
                    abs_diff=0.0 if got == expected[delta] else 1.0,
                    tolerance=0.0,
                    passed=got == expected[delta],
                )
            )

        # a closed-form value of eta, where a constant factor cannot cancel
        lhs = eta(mpc(0, 1), target, prec)
        # Gamma(1/4) / (2 pi^(3/4)); each value the exponent is formed from is below 4
        rhs = _exp_ball(lambda: loggamma(mpf(1) / 4) - log(2) - 3 * log(pi) / 4, 4)
        records.append(_agreement("eta-at-i", {"tau": str(mpc(0, 1))}, lhs, rhs))
        return records
