"""Error-tracked arbitrary-precision real and complex arithmetic.

Every analytic quantity the verifier reports is an ErrReal or an integer
enclosure at a stated width. An ErrReal is a ball, midpoint plus radius,
both held as mpmath's raw libmp tuples. The ball invariant: the true value
lies within err of value. Each operation keeps it.

* The midpoint rounds to nearest at the ambient precision, exactly as
  mpmath's own operators round, so values are bit-identical to plain mpf
  arithmetic. That rounding, at most |v| 2^-prec, is charged to the radius
  as the exact shift |v| 2^(1-prec).
* Every radius term rounds toward +inf, and a divisor's lower bound toward
  -inf, so a computed radius is never below the exact worst case over the
  operand balls that it stands for (|a| eb + |b| ea + ea eb for a product).
  Each radius is monotone in the operands' radii: wider inputs never give
  a narrower output.
* Monotone maps (sqrt, exp) reach from the midpoint to outward-rounded
  images of the endpoints. exp, cos and hypot trust mpmath to within a few
  ulp, which their charges cover; exp's trust is _EXP_TRUST.

This is the midpoint-radius scheme of Arb (Johansson, IEEE TC 2017).

Operations round at the ambient mpmath precision; wrap computations in
``working_precision(bits)`` to choose it.

Bessel I1 has one kernel, _i1_series: the ascending series at a dyadic
point z as a table of Python integers at 2^-w, one floor per coefficient,
with an integer bound on the floor errors carried alongside, to be read
at z/m for every integer m from the one it was built for. bessel_i1 reads
it at m = 1, the plain sum, at the exact ends of a ball and returns their
enclosure unrounded, whose ends bessel_bound_checks multiplies exactly; the
exact formula builds one table per index and class and reads each k by
Horner's rule in 1/k^2, from the entry past which the rest is below one
unit at that k.
_fixed_ball rounds a fixed-point total with an integer error bound into a
ball, once, at the precision it is given; _fixed_complex does so for both
parts of a complex one. Integers carry their width, and balls round at the
ambient precision: the fixed-point kernels (_i1_series, zeta_3_2, which
gives the integer ends of 2^w zeta(3/2), arithmetic's tables and sums,
modularcheck's _fixed_exp, _fixed_mul and _qpochhammer) take their width
as an argument and read no mp.prec.
A root of unity at a rational angle is an entry of arithmetic's tables
(arithmetic.unit_root); nothing here evaluates one.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from mpmath import bernfrac, mp, mpf
from mpmath.libmp import (
    from_float,
    from_int,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cos,
    mpf_div,
    mpf_exp,
    mpf_hypot,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sign,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    to_fixed,
    to_float,
)

__all__ = [
    "ErrReal",
    "ErrComplex",
    "working_precision",
    "bessel_i1",
    "bessel_bound_checks",
    "BesselBoundChecks",
    "zeta_3_2",
]


class working_precision:
    """Context manager: mp.prec is bits inside the block and its old value
    again on leaving it, also on an exception and when nested. mp.prec is
    set only when it differs, as setting it costs more than the check."""

    __slots__ = ("bits", "old")

    def __init__(self, bits: int):
        if bits < 4:
            raise ValueError("working precision must be at least 4 bits")
        self.bits = bits

    def __enter__(self) -> None:
        self.old = mp.prec
        if self.old != self.bits:
            mp.prec = self.bits

    def __exit__(self, *exc) -> None:
        if mp.prec != self.old:
            mp.prec = self.old


_make = mp.make_mpf

# mpmath's real exp at prec bits is trusted to within 2^(_EXP_TRUST - prec)
# of the true value, relative: ErrReal.exp and bessel_bound_checks charge it
_EXP_TRUST = 3

_PI: dict[int, int] = {}


def _pi_fixed(w: int) -> int:
    """P = floor(2^w mpf_pi(w + 10)), the one integer form of pi, cached per
    width: P - 1 <= 2^w pi <= P + 2, as mpf_pi is within 2^-(w+8) of pi."""
    if w not in _PI:
        _PI[w] = to_fixed(mpf_pi(w + 10), w)
    return _PI[w]


def _ball(v: tuple, e: tuple) -> "ErrReal":
    """The ErrReal with libmp midpoint v and radius e, taken as they are."""
    x = object.__new__(ErrReal)
    x._v = v
    x._e = e
    return x


def _radius(raw: tuple, v: tuple, prec: int, shift: int = 1) -> tuple:
    """raw + |v| 2^(shift - prec), rounded up: a bound raw on the error the
    operands carry in, plus the rounding of the midpoint v to nearest."""
    _, man, exp, bc = v
    if not man:
        return raw
    return mpf_add(raw, (0, man, exp + shift - prec, bc), prec, round_ceiling)


def _covering(r: tuple, bottom: tuple, top: tuple, prec: int) -> "ErrReal":
    """The ball at r whose radius, rounded up, reaches both bottom and top."""
    up = mpf_sub(top, r, prec, round_ceiling)
    down = mpf_sub(r, bottom, prec, round_ceiling)
    return _ball(r, down if mpf_lt(up, down) else up)


def _fixed_ball(total: int, err: int, w: int, prec: int) -> "ErrReal":
    """The ball of a fixed-point total at 2^-w that is within err units of
    the true value: the total rounded once to nearest at prec bits, which
    moves it at most |v| 2^-prec, and err 2^-w rounded up plus that move as
    the radius."""
    v = from_man_exp(total, -w, prec, round_nearest)
    return _ball(v, _radius(from_man_exp(err, -w, prec, round_ceiling), v, prec, 0))


def _fixed_complex(re: int, im: int, err: int, w: int, prec: int) -> "ErrComplex":
    """The ball of fixed-point totals re, im at 2^-w, each part within err
    units of the truth: _fixed_ball of each part at prec bits."""
    return ErrComplex(_fixed_ball(re, err, w, prec), _fixed_ball(im, err, w, prec))


class ErrReal:
    """An arbitrary-precision value with a rigorous absolute error bound:
    the ball [value - err, value + err]. Midpoint and radius are held as
    libmp tuples; value and err read them as mpf."""

    __slots__ = ("_v", "_e")

    def __init__(self, value, err=0):
        if isinstance(value, ErrReal):
            raise TypeError("value is already an ErrReal")
        prec = mp.prec
        e = err._mpf_ if isinstance(err, mpf) else mpf(err)._mpf_
        if mpf_sign(e) < 0:
            raise ValueError("error bound must be nonnegative")
        # only conversions that can round add to e
        if isinstance(value, mpf):
            v = value._mpf_
        elif isinstance(value, (int, float)):
            exact = from_int(value) if isinstance(value, int) else from_float(value, 0)
            v = mpf_pos(exact, prec, round_nearest)
            if v != exact:
                e = _radius(e, v, prec)
        else:
            from fractions import Fraction  # imported here: fractions loads decimal, which no command needs

            if not isinstance(value, Fraction):
                raise TypeError(f"cannot build ErrReal from {type(value)!r}")
            # two conversions and one division, each within |v| 2^-prec
            num, den = (from_int(x, prec, round_nearest) for x in (value.numerator, value.denominator))
            v = mpf_div(num, den, prec, round_nearest)
            e = _radius(e, v, prec, 2)
        self._v = v
        self._e = e

    @property
    def value(self) -> mpf:
        return _make(self._v)

    @property
    def err(self) -> mpf:
        return _make(self._e)

    # -- basic interval views -------------------------------------------------
    # endpoints are exact dyadic sums: rounding value +- err at a coarse
    # ambient precision could round the wrong way
    @property
    def lo(self) -> mpf:
        return _make(mpf_sub(self._v, self._e))

    @property
    def hi(self) -> mpf:
        return _make(mpf_add(self._v, self._e))

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    # -- arithmetic -----------------------------------------------------------
    # midpoints round to nearest as mpmath's own operators do; every radius
    # term rounds up, so each radius bounds the exact error it stands for
    def __add__(self, other):
        other = _coerce(other)
        prec = mp.prec
        v = mpf_add(self._v, other._v, prec, round_nearest)
        return _ball(v, _radius(mpf_add(self._e, other._e, prec, round_ceiling), v, prec))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        prec = mp.prec
        v = mpf_sub(self._v, other._v, prec, round_nearest)
        return _ball(v, _radius(mpf_add(self._e, other._e, prec, round_ceiling), v, prec))

    def __neg__(self):
        return _ball(mpf_neg(self._v), self._e)

    def __mul__(self, other):
        other = _coerce(other)
        prec = mp.prec
        a, ea, b, eb = self._v, self._e, other._v, other._e
        # |a| eb + |b| ea + ea eb
        raw = mpf_add(
            mpf_mul(mpf_abs(a), eb, prec, round_ceiling),
            mpf_mul(mpf_abs(b), ea, prec, round_ceiling),
            prec,
            round_ceiling,
        )
        if ea[1] and eb[1]:
            raw = mpf_add(raw, mpf_mul(ea, eb, prec, round_ceiling), prec, round_ceiling)
        v = mpf_mul(a, b, prec, round_nearest)
        return _ball(v, _radius(raw, v, prec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        prec = mp.prec
        a, ea, eb = self._v, self._e, other._e
        b = mpf_abs(other._v)
        if not mpf_lt(eb, b):
            raise ZeroDivisionError("divisor interval contains zero")
        v = mpf_div(a, other._v, prec, round_nearest)
        if eb[1]:
            # (ea |b| + |a| eb) / (|b| (|b| - eb)), the divisor bounded below
            num = mpf_add(
                mpf_mul(ea, b, prec, round_ceiling),
                mpf_mul(mpf_abs(a), eb, prec, round_ceiling),
                prec,
                round_ceiling,
            )
            den = mpf_mul(b, mpf_sub(b, eb, prec, round_floor), prec, round_floor)
            raw = mpf_div(num, den, prec, round_ceiling)
        else:
            raw = mpf_div(ea, b, prec, round_ceiling)
        return _ball(v, _radius(raw, v, prec))

    # -- monotone maps ---------------------------------------------------------
    # the radius reaches from the midpoint to outward-rounded images of the
    # endpoints, so it needs no separate charge for the midpoint's rounding
    def sqrt(self) -> "ErrReal":
        prec = mp.prec
        v, e = self._v, self._e
        hi = mpf_add(v, e)
        if mpf_sign(hi) < 0:
            raise ValueError("sqrt of a negative interval")
        lo, mid = (x if mpf_sign(x) > 0 else fzero for x in (mpf_sub(v, e), v))
        r = mpf_sqrt(mid, prec, round_nearest)
        return _covering(r, mpf_sqrt(lo, prec, round_floor), mpf_sqrt(hi, prec, round_ceiling), prec)

    def exp(self) -> "ErrReal":
        # mpmath's exp is within 2^(_EXP_TRUST - prec) relative of the true value
        prec = mp.prec
        v, e = self._v, self._e
        r = mpf_exp(v, prec, round_nearest)
        if e[1]:
            top = mpf_exp(mpf_add(v, e), prec, round_nearest)
            bottom = mpf_exp(mpf_sub(v, e), prec, round_nearest)
        else:
            top = bottom = r
        bottom = mpf_sub(bottom, mpf_shift(bottom, _EXP_TRUST - prec), prec, round_floor)
        top = mpf_add(top, mpf_shift(top, _EXP_TRUST - prec), prec, round_ceiling)
        return _covering(r, bottom, top, prec)

    def cos(self) -> "ErrReal":
        # |cos'| <= 1, and mpmath's cos is within 2^(3-prec) of the true value
        prec = mp.prec
        e = mpf_add(self._e, (0, 1, 3 - prec, 1), prec, round_ceiling)
        return _ball(mpf_cos(self._v, prec, round_nearest), e)

    def __repr__(self):
        return f"ErrReal({mp.nstr(self.value, 17)}, err={mp.nstr(self.err, 3)})"


def _coerce(x) -> ErrReal:
    if isinstance(x, ErrReal):
        return x
    if isinstance(x, int) and x.bit_length() <= mp.prec:
        return _ball(from_int(x), fzero)
    return ErrReal(x)


class ErrComplex:
    """Complex value as a pair of ErrReal components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = _coerce(re)
        self.im = _coerce(im)

    def conjugate(self) -> "ErrComplex":
        return ErrComplex(self.re, -self.im)

    def __add__(self, other):
        other = _coerce_complex(other)
        return ErrComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce_complex(other)
        return ErrComplex(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ErrComplex(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (ErrReal, int)):
            s = _coerce(other)
            return ErrComplex(self.re * s, self.im * s)
        other = _coerce_complex(other)
        return ErrComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (ErrReal, int)):
            s = _coerce(other)
            return ErrComplex(self.re / s, self.im / s)
        other = _coerce_complex(other)
        b = other.abs()
        if not b.value > b.err:
            raise ZeroDivisionError("divisor interval contains zero")
        num = self * other.conjugate()
        den = b * b
        return ErrComplex(num.re / den, num.im / den)

    def abs(self) -> ErrReal:
        # |hypot(a', b') - hypot(a, b)| <= |a' - a| + |b' - b|, and mpmath's
        # hypot is within |v| 2^(1-prec) of the true value
        prec = mp.prec
        re, im = self.re, self.im
        v = mpf_hypot(re._v, im._v, prec, round_nearest)
        return _ball(v, _radius(mpf_add(re._e, im._e, prec, round_ceiling), v, prec, 2))

    def __repr__(self):
        return f"ErrComplex({self.re!r}, {self.im!r})"


def _coerce_complex(x) -> ErrComplex:
    if isinstance(x, ErrComplex):
        return x
    if isinstance(x, (ErrReal, int, float)):
        return ErrComplex(x, 0)
    raise TypeError(f"cannot coerce {type(x)!r} to ErrComplex")


# ---------------------------------------------------------------------------
# Bessel I1
# ---------------------------------------------------------------------------


def _i1_series(x: int, shift: int, w: int, goal: int, m: int) -> tuple[list, list, int]:
    """The ascending series of I1 at z = x 2^-shift >= 0 as a table at 2^-w
    (shift + 1 >= w), to be read at z/m' for any integer m' >= m >= 1:
    integers A_j, E_j and tail with 2^w a_j - A_j in [0, E_j), where
    a_j = (z/2)^(2j+1) / (j! (j+1)!), so I1(z/m') = sum_j a_j m'^-(2j+1),
    and sum_{j > J} 2^w a_j m'^-2j <= tail past the last entry J.

    The a_j have exact ratios r_j = x^2 / (2^(2 shift + 2) (j+1)(j+2)), so
    A_0 = floor(2^w x / 2^(shift+1)) and A_(j+1) = floor(A_j r_j); each
    floor loses less than one unit and later ratios carry what was lost, so
    E_0 = 1 and E_(j+1) = ceil(E_j r_j) + 1 (`lost` below). Once
    rho_j = r_j / m^2 < 1/2, the rest after entry j, read at m' >= m, is at
    most 2^w a_j m^-2j rho_j / (1 - rho_j) <= 2 rho_j (A_j + E_j) m^-2j units;
    the table stops when that is at most goal. Read at m' = 1 (m = 1) the
    table is I1(z) itself: sum A_j <= 2^w I1(z) <= sum A_j + sum E_j + tail.
    The E_j grow with the terms (up to about e^z / z at m = 1), so w needs
    about 1.5z bits beyond the goal's there.
    """
    if x < 0:
        raise ValueError("Bessel argument must be nonnegative")
    if not x:
        return [0], [0], 0
    num, s, m2 = x * x, 2 * shift + 2, m * m
    cut = 2 * num // (m2 << s)  # rho_j < 1/2 iff (j+1)(j+2) > cut
    excess = num.bit_length() - s - goal.bit_length()
    term = x >> (shift + 1 - w)
    lost = 1
    terms, losts = [term], [lost]
    scale = m2  # m^(2j+2)
    j = 0
    while True:
        den = (j + 1) * (j + 2)
        # floor(floor(a / 2^s) / den) = floor(a / (2^s den)), and likewise ceil;
        # the tail is over 2^(bitlen(term + lost) + bitlen(num) - s - bitlen(den scale) - 1),
        # so it is formed only when that is at most goal
        if den > cut and (term + lost).bit_length() + excess <= (den * scale).bit_length():
            tail = -(((-2 * (term + lost) * num) >> s) // (den * scale))
            if tail <= goal:
                return terms, losts, tail
        term = ((term * num) >> s) // den
        lost = 1 - (((-lost * num) >> s) // den)
        terms.append(term)
        losts.append(lost)
        scale *= m2
        j += 1
        if j > 10_000_000:
            raise RuntimeError("Bessel series failed to converge")


def bessel_i1(x: ErrReal, target_err) -> ErrReal:
    """I1 over the ball x, with truncation and floor errors at most target_err.

    The ends of x are exact dyadics. Each is read exactly as an integer at
    2^-w, w = 58 - floor(log2 target_err) + floor(1.5 x_hi) or more if an
    end has more fractional bits, and read from its _i1_series table at
    m = 1, with the tail at most target_err / 2^12 (target_err / 2^11 for a
    point ball); at that w the floor errors stay far below the target. I1
    increases on [0, inf), so over x it lies in [sum A_j at the low end,
    sum A_j + sum E_j + tail at the high end] units, and the result is
    that interval as an exact ball, midpoint and radius at 2^-(w+1).
    Nothing is rounded.
    """
    x = _coerce(x)
    target = target_err if isinstance(target_err, mpf) else mpf(target_err)
    if not target > 0:
        raise ValueError("target_err must be positive")
    v, e = x._v, x._e
    hi = mpf_add(v, e)
    if mpf_sign(hi) < 0:
        raise ValueError("Bessel argument must be nonnegative")
    lo = mpf_sub(v, e)
    points = (lo if mpf_sign(lo) > 0 else fzero, hi) if e[1] else (hi,)
    _, _, exp, bc = target._mpf_
    w = max([58 - (exp + bc - 1) + int(1.5 * to_float(hi))] + [-p[2] for p in points if p[1]])
    # the tail goal: target/2 for a point ball, target/4 at each end, over 2^10
    goal = to_fixed(mpf_shift(target._mpf_, -10 - len(points)), w)
    tables = [_i1_series(p[1] << (p[2] + w), w, w, goal, 1) for p in points]
    terms, losts, tail = tables[-1]
    bottom, top = sum(tables[0][0]), sum(terms) + sum(losts) + tail
    return _ball(from_man_exp(bottom + top, -w - 1), from_man_exp(top - bottom, -w - 1))


class BesselBoundChecks(NamedTuple):
    """Outcome of the three I1 range inequalities at one argument.

    A check outside its range is vacuously true with applicable=False.
    """

    small_applicable: bool
    small_ok: bool
    large_applicable: bool
    large_ok: bool
    lower_applicable: bool
    lower_ok: bool

    def all_ok(self) -> bool:
        return self.small_ok and self.large_ok and self.lower_ok


def bessel_bound_checks(x: ErrReal) -> BesselBoundChecks:
    """Verify I1(x) <= x on [0,1), I1(x) <= sqrt(2/(pi x)) e^x on [1,inf),
    and I1(x) >= e^x / (4 sqrt(x)) on [3,inf), within error bars; I1 is
    evaluated to 2^(-prec/2) relative to e^max(x.value, 1). A check fails
    only where exact products of ends refute it on the whole ball: of x, I1
    (bessel_i1's ball), e^x (mpmath's exp at x's ends, widened by its
    2^(_EXP_TRUST - prec) relative trust) and pi_lo = (_pi_fixed(prec+10) - 1) 2^-(prec+10):
    I1_lo > x_hi, pi_lo x_lo I1_lo^2 > 2 E_hi^2, 16 x_hi I1_hi^2 < E_lo^2."""
    x = _coerce(x)
    prec = mp.prec
    i1 = bessel_i1(x, mpf(2) ** (-prec // 2) * mp.exp(x.value if x.value > 1 else mpf(1)))
    lo, hi, i1_lo, i1_hi = (end._mpf_ for end in (x.lo, x.hi, i1.lo, i1.hi))

    small_app = x.hi < 1 and x.lo >= 0
    small_ok = not (small_app and mpf_lt(hi, i1_lo))
    large_app, lower_app = x.lo >= 1, x.lo >= 3
    large_ok = lower_ok = True
    if large_app:
        e_lo = mpf_exp(lo, prec, round_nearest)
        e_hi = mpf_exp(hi, prec, round_nearest) if x._e[1] else e_lo
        e_lo = mpf_sub(e_lo, mpf_shift(e_lo, _EXP_TRUST - prec))
        e_hi = mpf_add(e_hi, mpf_shift(e_hi, _EXP_TRUST - prec))
        pi_lo = from_man_exp(_pi_fixed(prec + 10) - 1, -(prec + 10))
        large_ok = not mpf_lt(mpf_shift(mpf_mul(e_hi, e_hi), 1), mpf_mul(mpf_mul(pi_lo, lo), mpf_mul(i1_lo, i1_lo)))
        lower_ok = not (lower_app and mpf_lt(mpf_shift(mpf_mul(hi, mpf_mul(i1_hi, i1_hi)), 4), mpf_mul(e_lo, e_lo)))

    return BesselBoundChecks(small_app, small_ok, large_app, large_ok, lower_app, lower_ok)


# ---------------------------------------------------------------------------
# zeta(3/2)
# ---------------------------------------------------------------------------

_ZETA_CACHE: dict[int, tuple[int, int]] = {}


def zeta_3_2(w: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^w zeta(3/2) <= hi and hi - lo 1 or 2,
    cached per width w >= 1.

    With a = w//2 + 8 and u = w + bitlen(a) + 4, zeta(3/2) is the sum over
    k < a plus the Euler-Maclaurin tail from a, a^(-1/2) Q with
    Q = 2 + 1/(2a) + sum_j B_2j (3/2)_(2j-1) / ((2j)! a^2j). Each k < a adds
    floor(2^u k^(-3/2)) = isqrt(floor(2^2u / k^3)) (m^2 <= y iff
    m^2 <= floor(y) for an integer m), so the sum S is under a - 1 units
    short. Q is summed at 2^-u, one floor per term, with mpmath's exact
    Bernoulli rationals (bernfrac), up to the first term below 2^-(u+4):
    as x^(-3/2) is completely monotone, the remainder lies between 0 and
    that omitted term, R units rounded up. So 2^u Q lies in [T - R, T + j + R]
    for the total T of j floors (the omitted term is the j-th), and 2^u a^(-1/2) in [r, r + 1],
    r = isqrt(floor(2^2u / a)); lo and hi round the two ends at 2^-w, which
    lie under 1/8 unit apart.
    """
    if w < 1:
        raise ValueError("zeta_3_2 needs a width of at least 1 bit")
    if w in _ZETA_CACHE:
        return _ZETA_CACHE[w]
    a = w // 2 + 8
    u = w + a.bit_length() + 4
    one = 1 << 2 * u
    partial = sum(isqrt(one // k**3) for k in range(1, a))
    total = (2 << u) + (1 << u) // (2 * a)
    num, den, j = 3, 4 * a * a, 1  # term j of Q is B_2j num / den: (3/2) / (2 a^2) B_2 at j = 1
    while True:
        p, q = bernfrac(2 * j)
        if abs(p) * num << u + 4 < q * den:
            break
        total += (p * num << u) // (q * den)
        num *= (4 * j + 1) * (4 * j + 3)
        den *= 4 * (2 * j + 1) * (2 * j + 2) * a * a
        j += 1
    rest = (abs(p) * num << u) // (q * den) + 1  # the omitted term, rounded up at 2^-u
    r = isqrt(one // a)
    lo = ((partial << u) + (total - rest) * r) >> 2 * u - w
    hi = -((-((partial + a - 1) << u) - (total + j + rest) * (r + 1)) >> 2 * u - w)
    _ZETA_CACHE[w] = lo, hi
    return lo, hi
