"""Exact truncated power-series arithmetic over Python integers.

This module is the ground truth of the whole verifier: every sign verdict
ultimately rests on the integer coefficients produced here, so everything
is exact integer arithmetic -- no floating point anywhere.

The quotient Q^(delta) has two expansions. ``q10_series``, which the sign
verification and the exact-formula oracle use, divides two sparse theta
series given by the Jacobi triple product in O(order^1.5). Taken at -q,
every theta coefficient is +1, so the divisor is 1 plus a sum of powers of
q, given by its exponents alone, and the long division finds the
coefficients in blocks: the divisor terms that reach back past the block
are summed column by column over list windows and taken off the block in
C, and only the few short-reach terms run a scalar recurrence of bare
subtractions.
``q10_series_product`` multiplies out the residue product factor by factor
in O(order^2); it shares none of the first one's arithmetic and serves as
its independent cross-check.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from operator import neg, sub


class Verdict(Enum):  # each value is the letter of a sign report's verdict string
    MATCH_POSITIVE = "P"
    MATCH_NEGATIVE = "N"
    ZERO_EXCEPTION = "Z"
    MISMATCH = "X"


# Residue classes n mod 10 on which the coefficient is positive.
POSITIVE_RESIDUES = {
    1: frozenset({0, 2, 3, 6, 9}),
    -1: frozenset({0, 1, 2, 3, 9}),
}

# The complete (finite) sets of indices where the coefficient vanishes.
# Everywhere else the sign follows POSITIVE_RESIDUES.
ZERO_EXCEPTIONS = {
    1: frozenset({2, 5, 7, 9, 15, 17, 22, 27, 37, 47}),
    -1: frozenset({3, 4, 5, 6, 9, 13, 19, 23, 29, 39}),
}

# The least n from which the paper's closed-form threshold inequality
# settles every sign; below it the signs are checked term by term.
PAPER_THRESHOLD = {1: 2929, -1: 2234}

# Residues mod 10 of the factor indices: numerator residues get exponent
# +delta, denominator residues -delta.
_NUMERATOR_RESIDUES = (1, 9)
_DENOMINATOR_RESIDUES = (3, 7)

# Coefficients per block of _sparse_divide's long division. For q10_series
# at orders 2233, 2928, 4000, 6000 and 20000 (both signs, medians of 15
# interleaved runs on one CPU), 48 and 64 measured fastest, within 3% of
# each other, and every size from 32 to 128 within 7% of the fastest.
_BLOCK = 64


class TruncatedSeries:
    """Integer power series in q, truncated inclusively at ``order``."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        coeffs = tuple(map(int, coeffs))
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"need {order + 1} coefficients for order {order}, got {len(coeffs)}"
            )
        self.coeffs = coeffs
        self.order = order

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside [0, {self.order}]")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries(order={self.order}, coeffs=[{head}{tail}])"

    def to_json_dict(self, delta: int | None = None) -> dict:
        """Wire format: coefficients as decimal strings (they can exceed 64 bits)."""
        out = {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}
        if delta is not None:
            out["delta"] = delta
        return out


def _check_args(delta: int, order: int) -> None:
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    if order < 0:
        raise ValueError("order must be >= 0")


def _sparse_divide(num: list[tuple[int, int]], den: list[int], order: int) -> list[int]:
    """num / (1 + sum of q^e over e in den) up to q^order by long division,
    as the list of its coefficients.

    ``num`` holds (exponent, coefficient) terms by increasing exponent.
    ``den`` holds the divisor's exponents other than its constant term 1,
    ascending and each at least 1; an exponent listed c times stands for the
    term c q^e. So coefficient m is num's coefficient m less the sum of the
    coefficients m - e for e in den with e <= m, and no step multiplies:
    each listed exponent costs one subtraction per coefficient.

    The coefficients are found in blocks of _BLOCK. For an exponent
    e >= _BLOCK, coefficient m - e lies in an earlier block for every m of
    the block, so it is already final: the term's share of the whole block
    is one window (a list slice) of the buffer. The windows are summed
    column by column by sum() and taken off the block by map(), all in C.
    Only the exponents below _BLOCK (six for either theta series) read
    coefficients of the block itself, and they run the scalar recurrence.
    _BLOCK zeros before coefficient 0 stand for the coefficients at
    negative indices, so that neither a window nor a scalar step needs a
    bounds check.

    The windows are listed oldest first, for speed alone: CPython's sum()
    adds exact ints as machine words until the first item or partial sum
    that does not fit in a C long, then as big ints to the end, and the
    coefficients grow with their index (past 2^62 at about 2620 in
    q10_series), so the old windows' small ones come first. The sums are
    exact in any order.
    """
    cut = bisect_left(den, _BLOCK)
    near, far = den[:cut], den[cut:]
    buf = [0] * (_BLOCK + order + 1)
    for e, c in num:
        buf[_BLOCK + e] += c
    for start in range(_BLOCK, len(buf), _BLOCK):
        stop = min(start + _BLOCK, len(buf))
        block = buf[start:stop]
        # exponents e >= stop - _BLOCK would read only the zeros
        live = far[: bisect_left(far, stop - _BLOCK)]
        if live:
            # oldest window first: see the docstring
            windows = [buf[start - e : stop - e] for e in reversed(live)]
            block = list(map(sub, block, map(sum, zip(*windows))))
        for i, acc in enumerate(block, start):
            for e in near:
                acc -= buf[i - e]
            buf[i] = acc
    return buf[_BLOCK:]


def _theta_terms(shift: int, order: int) -> list[tuple[int, int]]:
    """Terms (exponent, coefficient) of sum over all integers k of
    (-1)^k q^(5k^2 - shift*k), up to q^order, by increasing exponent.

    For shift 2 and 4 the exponents 5k^2 - shift*k and 5j^2 + shift*j never
    coincide for k, j >= 1 (that needs 5(k - j) = shift), so every
    coefficient is +1 or -1.
    """
    terms = [(0, 1)]
    k = 1
    while 5 * k * k - shift * k <= order:
        sign = -1 if k % 2 else 1
        terms += [(e, sign) for e in (5 * k * k - shift * k, 5 * k * k + shift * k) if e <= order]
        k += 1
    return sorted(terms)


def q10_series(delta: int, order: int) -> TruncatedSeries:
    """Coefficients c_delta(0..order) of the residue-product quotient.

    The quotient has factors (1-q^n) with n == 1, 9 (mod 10) in the
    numerator and n == 3, 7 (mod 10) in the denominator; ``delta`` = -1
    swaps the roles.  The Jacobi triple product with p = q^10 gives

        (q;p)(q^9;p)(p;p)   = sum_k (-1)^k q^(5k^2 - 4k)
        (q^3;p)(q^7;p)(p;p) = sum_k (-1)^k q^(5k^2 - 2k)

    and the (p;p) factors cancel, so the quotient is a ratio of two series
    with O(sqrt(order)) nonzero terms each.  Long division reads only the
    denominator terms with exponent <= m for coefficient m, so the whole
    expansion is O(order^1.5) integer operations.  ``_sparse_divide`` runs
    it in blocks of _BLOCK coefficients: all but the six terms of exponent
    below _BLOCK read only finished blocks, so their sums are formed in C.

    It divides the two series at -q, which gives c_delta(m) times (-1)^m.
    There every coefficient is +1: the term of index k has the sign
    (-1)^k (-1)^(5k^2 -/+ shift*k) = (-1)^(k(5k + 1)) = 1 for even shift.
    So the divisor is 1 plus a sum of distinct powers of q, which
    ``_sparse_divide`` takes as its list of exponents, and the odd
    coefficients are negated afterwards.
    """
    _check_args(delta, order)
    num, den = ([e for e, _ in _theta_terms(shift, order)] for shift in (4, 2))
    if delta == -1:
        num, den = den, num
    coeffs = _sparse_divide([(e, 1) for e in num], den[1:], order)
    coeffs[1::2] = map(neg, coeffs[1::2])
    return TruncatedSeries(coeffs, order)


def _apply_factor(coeffs: list[int], a: int, exponent: int) -> None:
    """Multiply (exponent=+1) or divide (exponent=-1) by (1 - q^a), in place."""
    n = len(coeffs) - 1
    if exponent == 1:
        # descending order so untouched originals are read
        for m in range(n, a - 1, -1):
            coeffs[m] -= coeffs[m - a]
    else:
        # geometric-series recurrence b[m] = c[m] + b[m-a]
        for m in range(a, n + 1):
            coeffs[m] += coeffs[m - a]


def q10_series_product(delta: int, order: int) -> TruncatedSeries:
    """The same coefficients as ``q10_series``, straight from the product.

    Each factor (1-q^n) with n <= order is applied by an O(order) in-place
    pass, so the whole expansion is O(order^2 / 5) integer operations. It
    uses no theta-function identity, which makes it the independent
    cross-check of ``q10_series`` and of the theta quotient in
    ``modularcheck``; the sign verification does not call it.
    """
    _check_args(delta, order)
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for a in range(1, order + 1):
        r = a % 10
        if r in _NUMERATOR_RESIDUES:
            _apply_factor(coeffs, a, delta)
        elif r in _DENOMINATOR_RESIDUES:
            _apply_factor(coeffs, a, -delta)
    return TruncatedSeries(coeffs, order)


def sign_pattern_verdict(delta: int, n: int, c: int) -> Verdict:
    """Compare sgn(c) against the periodic pattern for index n.

    A zero coefficient is a ZeroException only at the finitely many known
    vanishing indices; a zero anywhere else, or a sign against the pattern,
    is a Mismatch.
    """
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    if c == 0:
        if n in ZERO_EXCEPTIONS[delta]:
            return Verdict.ZERO_EXCEPTION
        return Verdict.MISMATCH
    positive = n % 10 in POSITIVE_RESIDUES[delta]
    if (c > 0) == positive:
        return Verdict.MATCH_POSITIVE if positive else Verdict.MATCH_NEGATIVE
    return Verdict.MISMATCH
