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
    """num / den by the term-by-term recurrence, one coefficient at a time."""
    unit = den[0][1]
    out = [0] * (order + 1)
    for e, c in num:
        out[e] += c
    for m in range(order + 1):
        out[m] = unit * (out[m] - sum(c * out[m - e] for e, c in den[1:] if e <= m))
    return out


def naive_recip(a, order):
    assert a[0] in (1, -1)
    out = [0] * (order + 1)
    out[0] = a[0]
    for n in range(1, order + 1):
        out[n] = -a[0] * sum(a[j] * out[n - j] for j in range(1, n + 1))
    return out


# -- reciprocal, by the long division q10_series runs ------------------------


def recip(a):
    terms = [(e, c) for e, c in enumerate(a.coeffs) if c]
    return _sparse_divide([(0, 1)], terms, a.order)


def test_recip_geometric():
    assert recip(TruncatedSeries([1, -1, 0, 0, 0])).coeffs == (1, 1, 1, 1, 1)


def test_recip_of_one():
    one = TruncatedSeries([1, 0, 0, 0, 0])
    assert recip(one) == one


def test_recip_denominator_product_vs_long_division():
    order = 20
    powers = [n for n in range(1, order + 1) if n % 10 in (3, 7)]
    den = naive_product_one_minus_q_powers(powers, order)
    oracle = naive_recip(den, order)
    assert recip(TruncatedSeries(den, order)).coeffs == tuple(oracle)


@pytest.mark.parametrize("head", [0, 2, -3])
def test_recip_requires_unit_constant_term(head):
    with pytest.raises(ValueError, match="non-invertible"):
        recip(TruncatedSeries([head, 1, 1]))


def test_recip_involution():
    a = TruncatedSeries([1, 5, -2, 7, 0, 3])
    assert recip(recip(a)) == a


_B = _BLOCK
# exponents on and beside the block edges, where the windows of the
# blocked division begin and end
_EDGES = [1, 2, _B - 2, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1, 2 * _B + 2]


@st.composite
def division_cases(draw):
    order = draw(st.sampled_from([0, 1, _B - 1, _B, _B + 1, 2 * _B, 2 * _B + 1]))
    # denominator exponents run past order and across block edges
    exponent = st.one_of(st.integers(1, 3 * _B), st.sampled_from(_EDGES))
    coefficient = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9).filter(bool))
    tail = draw(st.dictionaries(exponent, coefficient, max_size=12))
    den = [(0, draw(st.sampled_from([1, -1])))] + sorted(tail.items())
    edges = [e for e in [0] + _EDGES if e <= order]
    num_exponent = st.one_of(st.integers(0, order), st.sampled_from(edges))
    num = sorted(draw(st.dictionaries(num_exponent, st.integers(-9, 9), max_size=6)).items())
    return num, den, order


@settings(max_examples=150, deadline=None)
@given(division_cases())
def test_sparse_divide_matches_scalar_recurrence(case):
    num, den, order = case
    assert _sparse_divide(num, den, order).coeffs == tuple(scalar_divide(num, den, order))


_WORD = 2**63  # CPython's sum() adds ints as C longs while each is in [-_WORD, _WORD)


def word_path_exits(num, den, order):
    """The signs of the term groups (+1: c > 0, -1: c < 0) in which some
    column of far-term windows leaves sum()'s machine-word path partway
    through, the windows read oldest first with each term listed |c| times.
    sum() adds exact ints as C longs until an item or the running total
    does not fit in one, then as big ints to the end."""
    out = scalar_divide(num, den, order)
    exits = set()
    for start in range(0, order + 1, _B):
        stop = min(start + _B, order + 1)
        for sign in (1, -1):
            far = [e for e, c in reversed(den) if _B <= e < stop for _ in range(sign * c)]
            for m in range(start, stop):
                total = 0
                for k, t in enumerate(out[m - e] if e <= m else 0 for e in far):
                    total += t
                    if not (-_WORD <= t < _WORD and -_WORD <= total < _WORD):
                        if k:
                            exits.add(sign)
                        break
    return exits


@pytest.mark.parametrize("unit", [1, -1])
def test_sparse_divide_is_exact_across_the_machine_word_edge(unit):
    # numerator coefficients on both sides of the C long edge, |c| in
    # {1, 2, 9} below and past _BLOCK, and an order spanning four blocks:
    # in both groups a column's sum starts on words and leaves them
    order = 3 * _B + 17
    num = [
        (0, 1), (2, 2**62 - 1), (_B - 1, -(2**62 - 1)), (_B + 5, 2**62),
        (2 * _B - 3, -(2**62)), (2 * _B + 8, 2**63), (3 * _B - 1, -(2**63)),
        (3 * _B + 4, 2**70), (3 * _B + 9, -(2**70)),
    ]
    den = [
        (0, unit), (3, 2), (7, -9), (11, 1), (_B - 2, -1),
        (_B + 1, 1), (_B + 6, -2), (_B + 13, 9),
        (2 * _B + 2, -1), (2 * _B + 7, 2), (2 * _B + 11, -9),
    ]
    assert word_path_exits(num, den, order) == {1, -1}
    assert _sparse_divide(num, den, order).coeffs == tuple(scalar_divide(num, den, order))


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
