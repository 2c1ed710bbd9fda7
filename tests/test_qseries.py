"""Tests for the exact integer series engine.

Expected values come from test-local oracles (naive convolution, naive
long division) or hand expansion; package functions are never used to
generate their own expectations.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from qsign.qseries import (
    POSITIVE_RESIDUES,
    TruncatedSeries,
    Verdict,
    ZERO_EXCEPTIONS,
    _BLOCK,
    _sparse_divide,
    _theta_terms,
    q10_series,
    q10_series_product,
    sign_pattern_verdict,
)


# -- test-local oracles -------------------------------------------------------


def naive_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1]):
            if i + j <= order:
                out[i + j] += x * y
    return out


def naive_product_one_minus_q_powers(powers, order):
    out = [0] * (order + 1)
    out[0] = 1
    for p in powers:
        factor = [0] * (order + 1)
        factor[0] = 1
        if p <= order:
            factor[p] = -1
        out = naive_mul(out, factor, order)
    return out


def scalar_divide(num, den, order):
    """num / (1 + sum of q^e over e in den) by the term-by-term recurrence,
    one coefficient at a time, against the divisor written out densely."""
    divisor = [0] * (order + 1)
    for e in den:
        if e <= order:
            divisor[e] += 1
    out = [0] * (order + 1)
    for e, c in num:
        out[e] += c
    for m in range(order + 1):
        out[m] -= sum(divisor[j] * out[m - j] for j in range(1, m + 1))
    return out


def naive_recip(a, order):
    assert a[0] in (1, -1)
    out = [0] * (order + 1)
    out[0] = a[0]
    for n in range(1, order + 1):
        out[n] = -a[0] * sum(a[j] * out[n - j] for j in range(1, n + 1))
    return out


# -- reciprocal, by the long division q10_series runs ------------------------


def recip(den, order):
    return _sparse_divide([(0, 1)], den, order)


def test_recip_geometric():
    assert recip([1], 4) == [1, -1, 1, -1, 1]


def test_recip_of_one():
    assert recip([], 4) == [1, 0, 0, 0, 0]


def test_recip_denominator_product_vs_long_division():
    # (q^3;p)(q^7;p)(p;p) with p = q^10, q10_series's divisor, at -q: every
    # coefficient is 0 or 1, so the exponents of the ones give the divisor
    order = 60
    powers = [n for n in range(1, order + 1) if n % 10 in (3, 7, 0)]
    den = [c * (-1) ** m for m, c in enumerate(naive_product_one_minus_q_powers(powers, order))]
    assert set(den) == {0, 1}
    assert recip([m for m, c in enumerate(den) if m and c], order) == naive_recip(den, order)


_B = _BLOCK
# exponents on and beside the block edges, where the windows of the
# blocked division begin and end
_EDGES = [1, 2, _B - 2, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1, 2 * _B + 2]


@st.composite
def division_cases(draw):
    order = draw(st.sampled_from([0, 1, _B - 1, _B, _B + 1, 2 * _B, 2 * _B + 1]))
    # divisor exponents run past order and across block edges, and one
    # listed c times stands for the term c q^e
    exponent = st.one_of(st.integers(1, 3 * _B), st.sampled_from(_EDGES))
    repeats = st.one_of(st.just(1), st.integers(2, 9))
    tail = draw(st.dictionaries(exponent, repeats, max_size=12))
    den = sorted(e for e, c in tail.items() for _ in range(c))
    edges = [e for e in [0] + _EDGES if e <= order]
    num_exponent = st.one_of(st.integers(0, order), st.sampled_from(edges))
    num = sorted(draw(st.dictionaries(num_exponent, st.integers(-9, 9), max_size=6)).items())
    return num, den, order


@settings(max_examples=150, deadline=None)
@given(division_cases())
def test_sparse_divide_matches_scalar_recurrence(case):
    num, den, order = case
    assert _sparse_divide(num, den, order) == scalar_divide(num, den, order)


_WORD = 2**63  # CPython's sum() adds ints as C longs while each is in [-_WORD, _WORD)


def word_path_exits(num, den, order, size):
    """Whether some column of far-exponent windows, in blocks of size
    coefficients, leaves sum()'s machine-word path partway through, the
    windows read oldest first. sum() adds exact ints as C longs until an
    item or the running total does not fit in one, then as big ints to the end."""
    out = scalar_divide(num, den, order)
    for start in range(0, order + 1, size):
        stop = min(start + size, order + 1)
        far = [e for e in reversed(den) if size <= e < stop]
        for m in range(start, stop):
            total = 0
            for k, t in enumerate(out[m - e] if e <= m else 0 for e in far):
                total += t
                if not (-_WORD <= t < _WORD and -_WORD <= total < _WORD):
                    if k:
                        return True
                    break
    return False


@pytest.mark.parametrize("sign", [1, -1])
def test_sparse_divide_is_exact_across_the_machine_word_edge(sign):
    # numerator coefficients on both sides of the C long edge, which is not
    # symmetric (-2^63 fits, 2^63 does not), taken as they are and negated;
    # divisor exponents listed 1, 2 and 9 times below and past _BLOCK, the
    # thirteen below it making blocks of den[6] = 7, and an order spanning
    # four blocks of _BLOCK: a column's sum starts on words and leaves them
    order = 3 * _B + 17
    num = [
        (0, 1), (2, 2**62 - 1), (_B - 1, -(2**62 - 1)), (_B + 5, 2**62),
        (2 * _B - 3, -(2**62)), (2 * _B + 8, 2**63), (3 * _B - 1, -(2**63)),
        (3 * _B + 4, 2**70), (3 * _B + 9, -(2**70)),
    ]
    num = [(e, sign * c) for e, c in num]
    den = sorted(
        e
        for e, c in [
            (3, 2), (7, 9), (11, 1), (_B - 2, 1),
            (_B + 1, 1), (_B + 6, 2), (_B + 13, 9),
            (2 * _B + 2, 1), (2 * _B + 7, 2), (2 * _B + 11, 9),
        ]
        for _ in range(c)
    )
    assert word_path_exits(num, den, order, min(_BLOCK, den[6]))
    assert _sparse_divide(num, den, order) == scalar_divide(num, den, order)


@pytest.mark.parametrize("sign", [1, -1])
def test_sparse_divide_runs_full_blocks_across_the_machine_word_edge(sign):
    # the case above, with five divisor entries (repeats counted) below
    # _BLOCK in place of thirteen: the division then runs in blocks of
    # _BLOCK and pads its six-term step
    order = 3 * _B + 17
    num = [
        (0, 1), (2, 2**62 - 1), (_B - 1, -(2**62 - 1)), (_B + 5, 2**62),
        (2 * _B - 3, -(2**62)), (2 * _B + 8, 2**63), (3 * _B - 1, -(2**63)),
        (3 * _B + 4, 2**70), (3 * _B + 9, -(2**70)),
    ]
    num = [(e, sign * c) for e, c in num]
    den = sorted(
        e
        for e, c in [
            (3, 2), (7, 2), (_B - 2, 1),
            (_B + 1, 1), (_B + 6, 2), (_B + 13, 9),
            (2 * _B + 2, 1), (2 * _B + 7, 2), (2 * _B + 11, 9),
        ]
        for _ in range(c)
    )
    assert sum(e < _B for e in den) == 5
    assert word_path_exits(num, den, order, min(_BLOCK, den[6]))
    assert _sparse_divide(num, den, order) == scalar_divide(num, den, order)


@pytest.mark.parametrize(
    "den",
    [[1] * 9 + [70, 130], [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]],
)
def test_sparse_divide_with_seven_or_more_short_exponents(den):
    # more than six entries below _BLOCK: the division runs in smaller blocks
    order = 2 * _B + 37
    num = [(0, 1), (5, -3), (_B + 2, 7)]
    assert _sparse_divide(num, den, order) == scalar_divide(num, den, order)


def _theta_division(delta, order):
    """q10_series's division at -q: the numerator terms and the divisor's
    exponents, as q10_series builds them."""
    num, den = ([e for e, _ in _theta_terms(shift, order)] for shift in (4, 2))
    if delta == -1:
        num, den = den, num
    return [(e, 1) for e in num], den[1:]


@pytest.mark.parametrize("delta", [1, -1])
def test_theta_division_matches_both_oracles_at_every_small_order(delta):
    top = 200
    num, den = _theta_division(delta, top)
    full = scalar_divide(num, den, top)
    product = q10_series_product(delta, top).coeffs
    for order in range(top + 1):
        assert _sparse_divide([t for t in num if t[0] <= order], den, order) == full[: order + 1]
        assert q10_series(delta, order).coeffs == product[: order + 1]


@pytest.mark.parametrize("delta", [1, -1])
def test_theta_division_matches_the_product_across_the_machine_word_edge(delta):
    # the coefficients pass 2^62 at about 2620, so the columns' window sums
    # leave the machine-word path here; orders five apart end the last block
    # at 21 different lengths
    product = q10_series_product(delta, 2700).coeffs
    assert max(map(abs, product[2600:])) >= 2**62 > max(map(abs, product[:2600]))
    for order in range(2600, 2701, 5):
        assert q10_series(delta, order).coeffs == product[: order + 1]


@pytest.mark.parametrize("delta", [1, -1])
def test_q10_series_hands_over_a_tuple_of_ints(delta):
    for order in (0, 1, 130):
        series = q10_series(delta, order)
        assert type(series.coeffs) is tuple
        assert all(type(c) is int for c in series.coeffs)
        assert series == TruncatedSeries(list(series.coeffs), order)


# -- the quotient series ------------------------------------------------------


def test_q10_constant_term():
    assert q10_series(1, 0).coeffs == (1,)
    assert q10_series(-1, 0).coeffs == (1,)


def test_q10_known_zeros():
    c1 = q10_series(1, 50)
    for n in (2, 5, 47):
        assert c1.coefficient(n) == 0
    cm1 = q10_series(-1, 40)
    for n in (3, 39):
        assert cm1.coefficient(n) == 0


def test_q10_small_heads_match_naive_oracle():
    order = 30
    num = naive_product_one_minus_q_powers(
        [n for n in range(1, order + 1) if n % 10 in (1, 9)], order
    )
    den = naive_product_one_minus_q_powers(
        [n for n in range(1, order + 1) if n % 10 in (3, 7)], order
    )
    assert q10_series(1, order).coeffs == tuple(naive_mul(num, naive_recip(den, order), order))
    assert q10_series(-1, order).coeffs == tuple(naive_mul(den, naive_recip(num, order), order))


def test_q10_reciprocal_pair():
    order = 200
    prod = naive_mul(q10_series(1, order).coeffs, q10_series(-1, order).coeffs, order)
    assert prod == [1] + [0] * order


def test_q10_matches_factorwise_route():
    # order 3000 covers both acceptance ranges (n <= 2928 / 2233)
    order = 3000
    for delta in (1, -1):
        assert q10_series(delta, order) == q10_series_product(delta, order)


def test_theta_terms_are_the_triple_products():
    # Jacobi triple product with p = q^10: the factor indices == 1, 9, 0
    # (mod 10) give the shift-4 series, == 3, 7, 0 (mod 10) the shift-2 one
    order = 200
    for shift, residues in ((4, (1, 9, 0)), (2, (3, 7, 0))):
        powers = [n for n in range(1, order + 1) if n % 10 in residues]
        dense = [0] * (order + 1)
        for e, c in _theta_terms(shift, order):
            dense[e] += c
        assert dense == naive_product_one_minus_q_powers(powers, order)


def test_q10_rejects_bad_arguments():
    for expand in (q10_series, q10_series_product):
        with pytest.raises(ValueError):
            expand(2, 10)
        with pytest.raises(ValueError):
            expand(1, -1)


def test_no_mismatch_up_to_3000():
    for delta in (1, -1):
        series = q10_series(delta, 3000)
        for n in range(3001):
            assert (
                sign_pattern_verdict(delta, n, series.coefficient(n))
                is not Verdict.MISMATCH
            )


# -- verdicts -----------------------------------------------------------------


def test_verdict_examples():
    assert sign_pattern_verdict(1, 10, 7) is Verdict.MATCH_POSITIVE
    assert sign_pattern_verdict(1, 2, 0) is Verdict.ZERO_EXCEPTION
    assert sign_pattern_verdict(-1, 4, 0) is Verdict.ZERO_EXCEPTION
    assert sign_pattern_verdict(1, 11, -2) is Verdict.MATCH_NEGATIVE
    assert sign_pattern_verdict(1, 11, 2) is Verdict.MISMATCH
    assert sign_pattern_verdict(1, 3, 0) is Verdict.MISMATCH  # zero off the list


def test_verdict_residue_tables():
    assert POSITIVE_RESIDUES[1] == frozenset({0, 2, 3, 6, 9})
    assert POSITIVE_RESIDUES[-1] == frozenset({0, 1, 2, 3, 9})
    for delta in (1, -1):
        for n in range(20):
            positive = n % 10 in POSITIVE_RESIDUES[delta]
            got = sign_pattern_verdict(delta, n, 1 if positive else -1)
            assert got in (Verdict.MATCH_POSITIVE, Verdict.MATCH_NEGATIVE)


def test_exception_lists_are_disjoint_from_future_surprises():
    assert max(ZERO_EXCEPTIONS[1]) == 47
    assert max(ZERO_EXCEPTIONS[-1]) == 39


# -- serialization ------------------------------------------------------------


def test_json_round_trip():
    series = q10_series(1, 12)
    payload = json.loads(json.dumps(series.to_json_dict(delta=1)))
    assert payload["delta"] == 1
    assert payload["order"] == 12
    assert [int(s) for s in payload["coeffs"]] == list(series.coeffs)


def test_coefficient_bounds():
    series = q10_series(1, 5)
    with pytest.raises(IndexError):
        series.coefficient(6)
    with pytest.raises(IndexError):
        series.coefficient(-1)
