"""Error-tracked arbitrary-precision real and complex arithmetic.

Every analytic quantity in the verifier is an ErrReal: a ball, midpoint
plus radius, both held as mpmath's raw libmp tuples. The ball invariant:
the true value lies within err of value. Each operation keeps it.

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
  ulp, which their charges cover.

This is the midpoint-radius scheme of Arb (Johansson, IEEE TC 2017).

Operations round at the ambient mpmath precision; wrap computations in
``working_precision(bits)`` to choose it.

Bessel I1 has one kernel, _i1_series: the ascending series at a point of
the 2^-w grid, summed as Python integers in units of 2^-w, one floor per
term, with an integer bound on the floor errors carried alongside. The
exact formula's term loop calls it directly on integers; bessel_i1 calls
it at the exact ends of a ball and returns their enclosure unrounded.
_fixed_ball rounds a fixed-point total with an integer error bound into a
ball, once; _fixed_complex does so for both parts of a complex one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import (
    from_float,
    from_int,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cos,
    mpf_cos_sin_pi,
    mpf_div,
    mpf_exp,
    mpf_hypot,
    mpf_lt,
    mpf_mul,
    mpf_neg,
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
    "pi_err",
    "unit_root_parts",
    "unit_root_err",
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


def _eps(shift: int = 1) -> mpf:
    # 2^(shift - prec), exact at any precision
    return mpf((1, shift - mp.prec))


_make = mp.make_mpf


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


def _fixed_ball(total: int, err: int, w: int) -> "ErrReal":
    """The ball of a fixed-point total at 2^-w that is within err units of
    the true value: the total rounded once to nearest at mp.prec, which
    moves it at most |v| 2^-prec, and err 2^-w rounded up plus that move as
    the radius."""
    prec = mp.prec
    v = from_man_exp(total, -w, prec, round_nearest)
    return _ball(v, _radius(from_man_exp(err, -w, prec, round_ceiling), v, prec, 0))


def _fixed_complex(re: int, im: int, err: int, w: int) -> "ErrComplex":
    """The ball of fixed-point totals re, im at 2^-w, each part within err
    units of the truth: _fixed_ball of each part."""
    return ErrComplex(_fixed_ball(re, err, w), _fixed_ball(im, err, w))


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
        elif isinstance(value, Fraction):
            # two conversions and one division, each within |v| 2^-prec
            num, den = (from_int(x, prec, round_nearest) for x in (value.numerator, value.denominator))
            v = mpf_div(num, den, prec, round_nearest)
            e = _radius(e, v, prec, 2)
        else:
            raise TypeError(f"cannot build ErrReal from {type(value)!r}")
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
        # mpmath's exp is within 2^(3-prec) relative of the true value
        prec = mp.prec
        v, e = self._v, self._e
        r = mpf_exp(v, prec, round_nearest)
        if e[1]:
            top = mpf_exp(mpf_add(v, e), prec, round_nearest)
            bottom = mpf_exp(mpf_sub(v, e), prec, round_nearest)
        else:
            top = bottom = r
        bottom = mpf_sub(bottom, mpf_shift(bottom, 3 - prec), prec, round_floor)
        top = mpf_add(top, mpf_shift(top, 3 - prec), prec, round_ceiling)
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


def _i1_series(x: int, w: int, goal: int) -> tuple[int, int]:
    """I1 at the point x 2^-w >= 0 by its ascending series, in fixed point
    at 2^-w: integers (s, bound) with s <= 2^w I1(x 2^-w) <= s + bound.

    The terms t_k = (x/2)^(2k+1) / (k! (k+1)!) of I1 at x 2^-w are positive
    with exact ratios r_k = x^2 / (2^(2w+2) (k+1)(k+2)). In units of 2^-w,
    T_0 = floor(x/2) and T_{k+1} = floor(T_k r_k); each floor loses less
    than one unit and later ratios carry what was lost, so 2^w t_k - T_k
    lies in [0, E_k) with E_0 = 1, E_{k+1} = ceil(E_k r_k) + 1 (`lost`
    below). Once r_k < 1/2 the tail after term k is at most
    2^w t_k r_k / (1 - r_k) <= 2 r_k (T_k + E_k) units; the sum stops when
    that is at most goal units, and bound is the tail plus the sum of the
    E_k. The E_k grow with the terms (up to about e^x / x), so w needs
    about 1.5x bits beyond the goal's.
    """
    if x < 0:
        raise ValueError("Bessel argument must be nonnegative")
    if not x:
        return 0, 0
    num, s = x * x, 2 * w + 2
    term = x >> 1
    lost = 1
    total, lost_total = term, lost
    k = 0
    while True:
        den = (k + 1) * (k + 2)
        # floor(floor(a / 2^s) / den) = floor(a / (2^s den)), and likewise ceil
        if 2 * num < den << s:
            tail = -(((-2 * (term + lost) * num) >> s) // den)
            if tail <= goal:
                break
        term = ((term * num) >> s) // den
        lost = 1 - (((-lost * num) >> s) // den)
        total += term
        lost_total += lost
        k += 1
        if k > 10_000_000:
            raise RuntimeError("Bessel series failed to converge")
    return total, tail + lost_total


def bessel_i1(x: ErrReal, target_err) -> ErrReal:
    """I1 over the ball x, with truncation and floor errors at most target_err.

    The ends of x are exact dyadics. Each is read exactly as an integer at
    2^-w, w = 58 - floor(log2 target_err) + floor(1.5 x_hi) or more if an
    end has more fractional bits, and summed by _i1_series with its tail at
    most target_err / 2^12 (target_err / 2^11 for a point ball); at that w
    the floor errors stay far below the target. I1 increases on [0, inf),
    so over x it lies in [s_lo, s_hi + bound_hi] units, and the result is
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
    series = [_i1_series(p[1] << (p[2] + w), w, goal) for p in points]
    bottom, top = series[0][0], sum(series[-1])
    return _ball(from_man_exp(bottom + top, -w - 1), from_man_exp(top - bottom, -w - 1))


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
