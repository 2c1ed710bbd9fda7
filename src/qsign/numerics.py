"""Error-tracked arbitrary-precision real and complex arithmetic.

Every analytic quantity in the verifier is an ErrReal: an mpmath midpoint
plus a rigorous absolute error bound. Propagation is sub-additive through
+/-, product-rule through *, and endpoint-based through monotone maps,
with a few-ulp slack added for the rounding of each mpmath operation
(mpmath rounds field operations correctly and elementary functions to
within a couple of ulp; the slack used here is deliberately generous).

Operations round at the ambient mpmath precision; wrap computations in
``working_precision(bits)`` to choose it.

Bessel I1 sums its series as Python integers in units of 2^-w, one floor
per term, with an integer bound on the floor errors carried alongside
(_i1_series).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_cos_sin_pi, round_nearest, to_fixed

__all__ = [
    "ErrReal",
    "ErrComplex",
    "working_precision",
    "pi_err",
    "unit_root_parts",
    "unit_root_err",
    "bessel_i1",
    "bessel_bound_checks",
    "BesselBoundChecks",
    "zeta_3_2",
]


@contextmanager
def working_precision(bits: int):
    if bits < 4:
        raise ValueError("working precision must be at least 4 bits")
    old = mp.prec
    mp.prec = bits
    try:
        yield
    finally:
        mp.prec = old


def _eps(shift: int = 1) -> mpf:
    # 2^(shift - prec), exact at any precision
    return mpf((1, shift - mp.prec))


class ErrReal:
    """An arbitrary-precision value with a rigorous absolute error bound."""

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        if isinstance(value, ErrReal):
            raise TypeError("value is already an ErrReal")
        e = err if isinstance(err, mpf) else mpf(err)
        # only conversions that can round add a slack to err
        if isinstance(value, mpf):
            v = value
        elif isinstance(value, (int, float)):
            v = mpf(value)
            # mpf(float) is exact; mpf(int) rounds once the int exceeds prec bits
            if isinstance(value, int) and v != value:
                e = e + abs(v) * _eps(1)
        elif isinstance(value, Fraction):
            v = mpf(value.numerator) / mpf(value.denominator)
            e = e + abs(v) * _eps(2)
        elif isinstance(value, str):
            v = mpf(value)
            e = e + abs(v) * _eps(1)
        else:
            raise TypeError(f"cannot build ErrReal from {type(value)!r}")
        if e < 0:
            raise ValueError("error bound must be nonnegative")
        self.value = v
        self.err = e

    # -- basic interval views -------------------------------------------------
    # endpoints use exact dyadic arithmetic: rounding value +- err at a
    # coarse ambient precision could round the wrong way
    @property
    def lo(self) -> mpf:
        from mpmath import fsub

        return fsub(self.value, self.err, exact=True)

    @property
    def hi(self) -> mpf:
        from mpmath import fadd

        return fadd(self.value, self.err, exact=True)

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    # -- arithmetic -----------------------------------------------------------
    def _finish(self, v: mpf, raw_err: mpf) -> "ErrReal":
        err = raw_err + abs(v) * _eps(1)
        # the err accumulation itself rounds; pad multiplicatively
        err = err + err * _eps(6)
        return ErrReal(v, err)

    def __add__(self, other):
        other = _coerce(other)
        return self._finish(self.value + other.value, self.err + other.err)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return self._finish(self.value - other.value, self.err + other.err)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return ErrReal(-self.value, self.err)

    def __abs__(self):
        return ErrReal(abs(self.value), self.err)

    def __mul__(self, other):
        other = _coerce(other)
        raw = (
            abs(self.value) * other.err
            + abs(other.value) * self.err
            + self.err * other.err
        )
        return self._finish(self.value * other.value, raw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        b = abs(other.value)
        if not b > other.err:
            raise ZeroDivisionError("divisor interval contains zero")
        raw = (self.err * b + abs(self.value) * other.err) / (b * (b - other.err))
        return self._finish(self.value / other.value, raw)

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    # -- monotone maps ---------------------------------------------------------
    def sqrt(self) -> "ErrReal":
        from mpmath import sqrt as msqrt

        if self.hi < 0:
            raise ValueError("sqrt of a negative interval")
        lo = self.lo if self.lo > 0 else mpf(0)
        mid = self.value if self.value > 0 else mpf(0)
        v = msqrt(mid)
        e = max(msqrt(self.hi) - v, v - msqrt(lo)) + abs(v) * _eps(2)
        return ErrReal(v, e + e * _eps(6))

    def exp(self) -> "ErrReal":
        from mpmath import exp as mexp

        v = mexp(self.value)
        e = max(mexp(self.hi) - v, v - mexp(self.lo)) + abs(v) * _eps(3)
        return ErrReal(v, e + e * _eps(6))

    def cos(self) -> "ErrReal":
        from mpmath import cos as mcos

        # |cos'| <= 1, |cos| <= 1
        return ErrReal(mcos(self.value), self.err + _eps(3))

    def __repr__(self):
        return f"ErrReal({mp.nstr(self.value, 17)}, err={mp.nstr(self.err, 3)})"


def _coerce(x) -> ErrReal:
    if isinstance(x, ErrReal):
        return x
    return ErrReal(x)


def pi_err() -> ErrReal:
    return ErrReal(+mp.pi, mp.pi * _eps(2))


def unit_root_parts(num: int, den: int) -> tuple[mpf, mpf]:
    """cos and sin of 2*pi*num/den, the angle reduced mod 1 as an exact rational.

    One joint cos/sin evaluation, bit-identical to (cospi, sinpi); each part
    is within unit_root_err() of the true value."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    frac = mpf(2 * (num % den)) / den
    c, s = mpf_cos_sin_pi(frac._mpf_, mp.prec, round_nearest)
    return mp.make_mpf(c), mp.make_mpf(s)


def unit_root_err() -> mpf:
    """Error bound of each part returned by unit_root_parts: 2^(4-prec)."""
    return _eps(4)


class ErrComplex:
    """Complex value as a pair of ErrReal components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = _coerce(re)
        self.im = _coerce(im)

    @classmethod
    def unit_root(cls, num: int, den: int) -> "ErrComplex":
        """e^(2*pi*i*num/den) from unit_root_parts on the exact rational angle."""
        c, s = unit_root_parts(num, den)
        err = unit_root_err()
        return cls(ErrReal(c, err), ErrReal(s, err))

    def conjugate(self) -> "ErrComplex":
        return ErrComplex(self.re, -self.im)

    def __add__(self, other):
        other = _coerce_complex(other)
        return ErrComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_complex(other)
        return ErrComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce_complex(other).__sub__(self)

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
        from mpmath import hypot

        v = hypot(self.re.value, self.im.value)
        e = self.re.err + self.im.err + abs(v) * _eps(2)
        return ErrReal(v, e + e * _eps(6))

    def max_err(self) -> mpf:
        return max(self.re.err, self.im.err)

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


def _i1_series(x: mpf, goal: mpf, w: int) -> tuple[mpf, mpf]:
    """Ascending series at a point in fixed point at 2^-w.

    Returns exact dyadics (s, bound) with s <= I1(x) <= s + bound. The terms
    t_k = (x/2)^(2k+1) / (k! (k+1)!) are positive with exact ratios
    r_k = (x/2)^2 / ((k+1)(k+2)). In units of 2^-w, T_0 = floor(2^w x/2)
    and T_{k+1} = floor(T_k r_k); each floor loses less than one unit and
    later ratios carry what was lost, so 2^w t_k - T_k lies in [0, E_k)
    with E_0 = 1, E_{k+1} = ceil(E_k r_k) + 1 (`lost` below). Once r_k < 1/2 the tail
    after term k is at most 2^w t_k r_k / (1 - r_k) <= 2 r_k (T_k + E_k)
    units; the sum stops when that is at most goal/2^10, and bound is the
    tail plus the sum of the E_k. The E_k grow with the terms (up to about
    e^x / x), so w needs about 1.5x bits beyond -log2(goal).
    """
    if x < 0:
        raise ValueError("Bessel argument must be nonnegative")
    _, man, exp, _ = x._mpf_
    if not man:
        return mpf(0), mpf(0)
    # (x/2)^2 = num / 2^s exactly
    num, s = man * man, 2 - 2 * exp
    if s < 0:
        num, s = num << -s, 0
    shift = w + exp - 1
    term = man << shift if shift >= 0 else man >> -shift
    lost = 1
    total, lost_total = term, lost
    goal_units = to_fixed(goal._mpf_, w - 10)
    k = 0
    while True:
        den = (k + 1) * (k + 2)
        # floor(floor(a / 2^s) / den) = floor(a / (2^s den)), and likewise ceil
        if 2 * num < den << s:
            tail = -(((-2 * (term + lost) * num) >> s) // den)
            if tail <= goal_units:
                break
        term = ((term * num) >> s) // den
        lost = 1 - (((-lost * num) >> s) // den)
        total += term
        lost_total += lost
        k += 1
        if k > 10_000_000:
            raise RuntimeError("Bessel series failed to converge")
    return mp.make_mpf(from_man_exp(total, -w)), mp.make_mpf(from_man_exp(tail + lost_total, -w))


def bessel_i1(x: ErrReal, target_err) -> ErrReal:
    """I1(x) with truncation + rounding error at most target_err.

    Each endpoint is summed in fixed point (_i1_series) at
    w = 58 - floor(log2 target_err) + floor(1.5 x) bits, so the floor
    errors and the truncated tail together stay far below the target.
    Uncertainty in x itself propagates through endpoint evaluation on top
    of the target (I1 is increasing on [0, inf)).
    """
    x = _coerce(x)
    target = target_err if isinstance(target_err, mpf) else mpf(target_err)
    if not target > 0:
        raise ValueError("target_err must be positive")
    if x.hi < 0:
        raise ValueError("Bessel argument must be nonnegative")
    growth = int(1.5 * float(x.hi))
    _, _, exp, bc = target._mpf_
    log2_target = exp + bc - 1  # floor(log2 target), exact
    w = 58 - log2_target + growth
    # the enclosure's own rounding: bits for a sum of size ~e^x to meet the target
    bits = growth + max(0, -log2_target) + 48
    with working_precision(max(mp.prec, bits)):
        if x.err == 0:
            v, e = _i1_series(x.value, target / 2, w)
            return ErrReal(v, e)
        lo = x.lo if x.lo > 0 else mpf(0)
        v_lo, e_lo = _i1_series(lo, target / 4, w)
        v_hi, e_hi = _i1_series(x.hi, target / 4, w)
        lower = v_lo - e_lo
        upper = v_hi + e_hi
        mid = (lower + upper) / 2
        return ErrReal(mid, (upper - lower) / 2 + abs(mid) * _eps(2))


@dataclass(frozen=True)
class BesselBoundChecks:
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
    evaluated to 2^(-prec/2) relative to max(e^x, e)."""
    x = _coerce(x)
    scale = mp.exp(x.value if x.value > 1 else mpf(1))
    i1 = bessel_i1(x, mpf(2) ** (-mp.prec // 2) * scale)

    small_app = x.hi < 1 and x.lo >= 0
    small_ok = True
    if small_app:
        small_ok = not i1.lo > x.hi

    large_app = x.lo >= 1
    large_ok = True
    if large_app:
        two_over_pix = ErrReal(2) / (pi_err() * x)
        bound = two_over_pix.sqrt() * x.exp()
        large_ok = not i1.lo > bound.hi

    lower_app = x.lo >= 3
    lower_ok = True
    if lower_app:
        bound = x.exp() / (ErrReal(4) * x.sqrt())
        lower_ok = not i1.hi < bound.lo

    return BesselBoundChecks(small_app, small_ok, large_app, large_ok, lower_app, lower_ok)


# ---------------------------------------------------------------------------
# zeta(3/2)
# ---------------------------------------------------------------------------

# B_2, B_4, B_6 of the Euler-Maclaurin tail of sum n^(-3/2); the integrand
# is completely monotone, so the remainder is enveloped by the first omitted
# (B_8) correction term.
_EM_B = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42))

_ZETA_CACHE: dict[tuple[int, int], ErrReal] = {}


def zeta_3_2(target_err) -> ErrReal:
    """zeta(3/2) enclosed by a partial sum over n <= N plus the
    Euler-Maclaurin tail from N+1 through its B_6 term; the remainder stays
    enveloped because x^(-3/2) is completely monotone.
    """
    from mpmath import sqrt as msqrt

    target = target_err if isinstance(target_err, mpf) else mpf(target_err)
    if not target > 0:
        raise ValueError("target_err must be positive")
    key = (mp.prec, int(mp.ceil(-mp.log(target) / mp.log(2))))
    if key in _ZETA_CACHE:
        return _ZETA_CACHE[key]

    # remainder after B6 term: <= 0.0131 * (N+1)^(-8.5)
    n_terms = int((mpf("0.0131") / target) ** (mpf(2) / 17)) + 16

    with working_precision(mp.prec + 32 + n_terms.bit_length()):
        partial = mpf(0)
        for k in range(n_terms, 0, -1):  # ascending magnitudes: sum small-to-large
            partial += 1 / (mpf(k) * msqrt(k))
        rounding = partial * (n_terms + 4) * _eps(2)
        a = mpf(n_terms + 1)
        s = mpf(3) / 2
        tail = 2 / msqrt(a) + a ** (-s) / 2
        deriv = -s * a ** (-s - 1)
        tail -= mpf(_EM_B[0].numerator) / _EM_B[0].denominator / 2 * deriv
        deriv3 = -s * (s + 1) * (s + 2) * a ** (-s - 3)
        tail -= mpf(_EM_B[1].numerator) / _EM_B[1].denominator / 24 * deriv3
        deriv5 = -s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * a ** (-s - 5)
        tail -= mpf(_EM_B[2].numerator) / _EM_B[2].denominator / 720 * deriv5
        remainder = mpf("0.0131") * a ** mpf("-8.5")
        value = partial + tail
        err = remainder + rounding + abs(value) * _eps(4)
        result = ErrReal(value, err)
    _ZETA_CACHE[key] = result
    return result
