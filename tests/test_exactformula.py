"""Tests for the exact-formula evaluation, its tail machinery, and the
closing threshold inequalities.

The brute-force integer series is the oracle for every coefficient value.
The certified Weil-type tail bound is far above 1/2 at desk-scale cutoffs
(the analysis, with measured values, is in the module docstring of
tests/test_acceptance.py and in the README section "Criterion 3 and the
tail bound"), so `definitive` is expected False; rounding correctness is
asserted against the oracle.
"""

import ast
import inspect
import json
import sys
import types
from fractions import Fraction
from math import gcd, isqrt

import mpmath
import pytest
from mpmath import mpf
from mpmath.libmp import from_man_exp, mpf_pi, to_fixed

from qsign.exactformula import (
    _DIVISOR_PARTIALS,
    _TAIL_BOUNDS,
    _class_sum,
    _pass_bits,
    c_exact,
    default_k_max,
    error_bound_total,
    main_error_split,
    main_term,
    shifted_index,
    tail_bound_op,
    threshold_lhs,
)
from qsign.arithmetic import _GUARD_BITS, _ROOT_TABLES, _akj_exponent_table, clear_caches
from qsign.numerics import ErrReal, _fixed_ball, _i1_series, bessel_bound_checks, working_precision, zeta_3_2
from qsign.qseries import POSITIVE_RESIDUES, q10_series


def test_shifted_index():
    assert shifted_index(1, 10) == 53
    assert shifted_index(-1, 10) == 47
    with pytest.raises(ValueError):
        shifted_index(0, 10)


def term(delta, n, k, prec=128):
    """The k-th summand of the exact formula, as c_exact forms it, rounded
    into a ball."""
    with working_precision(prec):
        w, value, err = _class_sum(delta, n, gcd(k, 10), (k,), prec)
        return _fixed_ball(value, err, 2 * w, prec)


def _main_term_reference(delta, n, bits=512):
    """The k = 10 term, (2 sqrt3 pi / (5 sqrt(nn))) cos(2 pi num/100)
    I1((2 pi/25) sqrt(3 nn)), in plain mpmath at bits: cospi, besseli,
    sqrt and pi, none of which the root tables or the Bessel tables use."""
    nn = shifted_index(delta, n)
    num = 16 + 30 * n if delta == 1 else 12 - 10 * n
    with mpmath.workprec(bits):
        pi = mpmath.pi
        cosine = mpmath.cospi(mpf(2 * num) / 100)
        i1 = mpmath.besseli(1, 2 * pi / 25 * mpmath.sqrt(3 * nn))
        return 2 * mpmath.sqrt(3) * pi / (5 * mpmath.sqrt(nn)) * cosine * i1


def test_term_k10_equals_main_term():
    # main_term is term(10) rounded into a ball, so both are also held
    # against a reference that shares no table with them
    for delta, n in ((1, 10), (1, 17), (1, 100), (-1, 25)):
        t = term(delta, n, 10)
        m = main_term(delta, n)
        assert abs(t.value - m.value) <= 4 * (t.err + m.err) + mpf("1e-30")
        ref = _main_term_reference(delta, n)
        with mpmath.workprec(512):
            for ball in (t, m):
                assert abs(ball.value - ref) <= ball.err + abs(ref) * mpf(2) ** -400, (delta, n)


def test_main_term_builds_only_the_class_10_table(monkeypatch):
    # each class's sum builds its Bessel table once: k = 10 reads d = 10
    # only, and c_exact reads both classes once each
    import qsign.exactformula as ef

    built = []

    def spy(x, shift, w, goal, m):
        built.append(m)
        return _i1_series(x, shift, w, goal, m)

    monkeypatch.setattr(ef, "_i1_series", spy)
    main_term(1, 1000)
    assert built == [10]
    built.clear()
    c_exact(1, 1000)
    assert sorted(built) == [5, 10]


def test_term_k_domain():
    with pytest.raises(ValueError):
        term(1, 10, 12)  # gcd(k,10)=2
    with pytest.raises(ValueError):
        term(-1, 1, 10)  # inner index not positive
    with pytest.raises(ValueError):
        term(1, 0, 10)


@pytest.mark.parametrize("delta,n", [(1, 30), (1, 47), (-1, 25), (-1, 12)])
def test_c_exact_rounds_to_oracle(delta, n):
    ev = c_exact(delta, n)
    oracle = q10_series(delta, n).coefficient(n)
    assert ev.rounded == oracle
    assert ev.gap + ev.err < mpf("0.5")
    assert not ev.definitive  # Weil-type tail certificate is O(100) here
    assert (ev.prec, ev.escalations) == (128, 0)
    assert ev.tail_bound > 1


def test_c_exact_escalates_precision_only():
    # at 16 bits the numeric error exceeds 1/4 and one doubling cures it;
    # the cutoff stays at its default
    ev = c_exact(1, 300, prec=16)
    assert ev.prec == 32
    assert ev.escalations == 1
    assert ev.to_dict()["prec"] == 32 and ev.to_dict()["escalations"] == 1
    assert ev.k_max == default_k_max(1, 300) == 170
    assert ev.err <= mpf(1) / 4
    assert ev.rounded == 65561 == q10_series(1, 300).coefficient(300)


def test_c_exact_runs_one_pass_at_the_precision_it_reports():
    # _pass_bits(1, 1000, 309) = 50, so 16 bits double twice, to 64, before
    # any table is built: none is left at 16 or 32 bits
    clear_caches()
    ev = c_exact(1, 1000, prec=16)
    assert (ev.prec, ev.escalations) == (64, 2)
    assert {prec for _, prec in _ROOT_TABLES} == {ev.prec}


@pytest.mark.parametrize("delta", [1, -1])
def test_c_exact_reaches_a_quarter_from_any_requested_floor(delta):
    # 16 bits double three times, to 128: the bit count of _class_sum's
    # proof, not a capped search, sets the precision
    series = q10_series(delta, 6000)
    for n in (3000, 6000):
        ev = c_exact(delta, n, prec=16)
        assert (ev.prec, ev.escalations) == (128, 3)
        assert ev.err <= mpf(1) / 4
        assert ev.rounded == series.coefficient(n)


def test_pass_bits_keep_the_criterion_3_indices_at_128():
    for delta in (1, -1):
        for n in range(10, 301):
            assert _pass_bits(delta, n, default_k_max(delta, n)) <= 128
    assert 128 < _pass_bits(1, 20000, default_k_max(1, 20000)) <= 256


def test_c_exact_at_512_bits_asks_zeta_for_its_width(monkeypatch):
    # zeta_3_2 takes the bound's width w = max(prec, 96) + 32 and costs
    # milliseconds there: no cap on its accuracy at 512 bits
    import qsign.exactformula as ef

    widths = []

    def spy(w):
        widths.append(w)
        return zeta_3_2(w)

    monkeypatch.setattr(ef, "zeta_3_2", spy)
    _TAIL_BOUNDS.clear()
    ev = c_exact(1, 10, prec=512)
    assert ev.rounded == q10_series(1, 10).coefficient(10)
    assert ev.gap + ev.err < mpf("0.5")
    assert ev.prec == 512
    main_error_split(1, 10, prec=512)
    assert widths == [544, 544]
    for prec in (64, 127, 256):
        widths.clear()
        tail_bound_op(1, 10, 50, prec)
        error_bound_total(1, 10, prec)
        assert widths == [max(prec, 96) + 32] * 2


# -- the integer term loop ------------------------------------------------------


def _q(x):
    return Fraction(int(x.man)) * Fraction(2) ** int(x.exp) if x else Fraction(0)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("n", [10, 11, 29, 47, 64, 103, 117, 181, 256, 300])
def test_c_exact_agrees_across_precisions(delta, n):
    # the 128- and 512-bit enclosures overlap: |v128 - v512| <= err128 + err512
    low, high = c_exact(delta, n), c_exact(delta, n, prec=512)
    assert (low.prec, high.prec) == (128, 512)
    assert low.rounded == high.rounded
    assert abs(_q(low.value) - _q(high.value)) <= _q(low.err) + _q(high.err)
    assert high.err < low.err


def _reference_factor(delta, n, k):
    """(prefix / k) I1(x_k) at the ambient mpmath precision."""
    nn = shifted_index(delta, n)
    root = mpmath.sqrt(2 * (gcd(k, 10) - 4) * nn)
    return mpmath.pi * root / nn / k * mpmath.besseli(1, 2 * mpmath.pi * root / (5 * k))


def _reference_twist(delta, n, k):
    """A_k(n) or cal A_k(n), term by term over both classes at the ambient
    mpmath precision."""
    js, m = ((3, -3), n) if delta == 1 else ((1, -1), -n)
    exps = [base + m * step for j in js for base, step in _akj_exponent_table(k, j)]
    total = mpmath.fsum(mpmath.expjpi(mpf(2 * e) / (10 * k)) for e in exps)
    return total if delta == 1 else mpmath.conj(total)


def _summands(module, delta, n, prec, k_max=None):
    """w and every k's summand (value, err) up to k_max, by default the
    default cutoff, each from module's _class_sum over that k alone."""
    k_max = k_max or default_k_max(delta, n)
    sums = {k: module._class_sum(delta, n, gcd(k, 10), (k,), prec) for k in range(5, k_max + 1, 5)}
    (w,) = {w for w, _, _ in sums.values()}
    return w, {k: (value, err) for k, (_, value, err) in sums.items()}


TERM_INDICES = [(1, 10), (1, 83), (1, 300), (1, 3000), (-1, 12), (-1, 47), (-1, 211)]


@pytest.mark.parametrize("prec", [16, 64, 128, 256])
def test_term_parts_enclose_the_reference(prec):
    import qsign.exactformula as ef

    for delta, n in TERM_INDICES:
        with working_precision(prec):
            w, parts = _summands(ef, delta, n, prec)
        with mpmath.workprec(2 * w + 200):
            for k, (value, err) in parts.items():
                ref = _reference_twist(delta, n, k) * _reference_factor(delta, n, k) * 2 ** (2 * w)
                assert abs(ref.real - value) <= err, (delta, n, k)
                assert abs(ref.imag) <= err, (delta, n, k)


@pytest.mark.parametrize("prec", [16, 64, 128, 256, 512])
def test_term_factor_encloses_the_reference(prec, monkeypatch):
    # with an exact twist of 2 only the factor's own error is left: the
    # prefix, the Bessel argument's floor and its charge, the floors and
    # the skipped entries' unit. At (1, 300) and (-1, 211) k runs on to 4
    # times the cutoff, where each k's cut still reads a quarter to a half of
    # its table; at 512 bits a cut one bit per entry looser skips past the bound
    import qsign.exactformula as ef

    monkeypatch.setattr(ef, "_twist_totals", lambda k, n, twisted, prec: (2 << (prec + _GUARD_BITS), 0))
    for delta, n in TERM_INDICES + [(1, 29), (1, 160), (-1, 103), (-1, 256)]:
        scale = 4 if (delta, n) in ((1, 300), (-1, 211)) else 1
        with working_precision(prec):
            w, parts = _summands(ef, delta, n, prec, scale * default_k_max(delta, n))
        with mpmath.workprec(2 * w + 200):
            for k, (value, err) in parts.items():
                ref = 2 * _reference_factor(delta, n, k) * 2 ** (2 * w)
                assert abs(ref - value) <= err, (delta, n, k)


def _exactformula_mutant(old, new, monkeypatch):
    """A fresh copy of qsign.exactformula with its source's one occurrence
    of old replaced by new."""
    import qsign.exactformula as ef

    source = inspect.getsource(ef)
    assert source.count(old) == 1, old
    module = types.ModuleType("qsign._exactformula_mutant")
    module.__package__ = "qsign"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), "<mutant>", "exec"), module.__dict__)
    return module


def _displaced_factor_ratios(module, delta, n, prec, sign, monkeypatch):
    """|2^2w (2 prefix/k) I1(x_k) - value| / err over every k of module's
    _class_sum, each k summed alone, with an exact twist of 2 and each
    class's Bessel table built at a point Y displaced from the true 2 y_d by
    nearly the sum's whole y_err: y_err - 1 units below it (sign < 0), or
    y_err above it but no further above the sum's own Y than y_err
    (sign > 0). The sum's y_err is recomputed here from its stated formula;
    the fake checks that the sum's Y is the one that formula gives."""
    nn = shifted_index(delta, n)
    w = prec + _GUARD_BITS
    u = w + 16
    pi = to_fixed(mpf_pi(u + 10), u)

    def displaced(y, shift, bits, goal, d):
        root = isqrt(2 * (d - 4) * nn << 2 * u)
        assert (y, shift) == (2 * pi * root // (5 << w), u + 16)
        y_err = 2 * (2 * root + pi + 2) // (5 << w) + 2
        with mpmath.workprec(2 * w + 200):
            true = int(mpmath.floor(2 * mpmath.pi * mpmath.sqrt(2 * (d - 4) * nn) / 5 * mpf(2) ** shift))
        moved = true - (y_err - 1) if sign < 0 else min(true + y_err, y + y_err)
        return _i1_series(moved, shift, bits, goal, d)

    monkeypatch.setattr(module, "_i1_series", displaced)
    monkeypatch.setattr(module, "_twist_totals", lambda k, n, twisted, prec: (2 << (prec + _GUARD_BITS), 0))
    w, parts = _summands(module, delta, n, prec)
    with mpmath.workprec(2 * w + 200):
        return {k: abs(2 * _reference_factor(delta, n, k) * 2 ** (2 * w) - value) / err for k, (value, err) in parts.items()}


DISPLACED_INDICES = [(1, 300), (1, 3000)]


@pytest.mark.parametrize("prec", [16, 64, 128, 256])
def test_term_factor_encloses_the_reference_at_a_displaced_bessel_point(prec, monkeypatch):
    # the argument's charge ((y_err << t) >> 16) covers a table built
    # anywhere within y_err of the true point, on either side
    import qsign.exactformula as ef

    for delta, n in TERM_INDICES + [(-1, 103)]:
        for sign in (-1, 1):
            ratios = _displaced_factor_ratios(ef, delta, n, prec, sign, monkeypatch)
            assert max(ratios.values()) <= 1, (delta, n, sign)


@pytest.mark.parametrize("prec", [16, 64, 128, 256])
def test_dropping_the_argument_charge_is_caught(prec, monkeypatch):
    # at k = 10 of these indices the point y_err - 1 units below the truth
    # moves the summand beyond every other charge of its error bound
    mutant = _exactformula_mutant("((y_err << t) >> 16)", "0", monkeypatch)
    for delta, n in DISPLACED_INDICES:
        ratios = _displaced_factor_ratios(mutant, delta, n, prec, -1, monkeypatch)
        assert ratios[10] > 1, (delta, n)


def test_term_does_not_depend_on_the_order_of_the_k():
    # a class's sum over its k, ascending and descending, is the sum of
    # its single-k sums
    for delta, n in ((1, 10), (1, 300), (1, 3000), (1, 20000), (-1, 211)):
        for d in (5, 10):
            ks = range(d, default_k_max(delta, n) + 1, 10)
            with working_precision(128):
                sums = [_class_sum(delta, n, d, order, 128) for order in (ks, ks[::-1])]
                alone = [_class_sum(delta, n, d, (k,), 128) for k in ks]
            total = (128 + _GUARD_BITS, sum(v for _, v, _ in alone), sum(e for _, _, e in alone))
            assert sums[0] == sums[1] == total, (delta, n, d)


# opcodes of one warm c_exact(1, 20000) on CPython 3.11 with mpmath 1.3.0's
# pure-Python backend
_WARM_OPCODES = 684_931


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11)
    or mpmath.__version__ != "1.3.0"
    or mpmath.libmp.BACKEND != "python"
    or sys.gettrace() is not None,
    reason="the opcode count is pinned on an untraced CPython 3.11 with mpmath 1.3.0's pure-Python backend",
)
def test_warm_c_exact_stays_within_its_opcode_budget():
    # a work budget at the n the criteria's range cannot show: the count is
    # the same on every run, and a quarter over it fails
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return tracer

    c_exact(1, 20000)
    sys.settrace(tracer)
    try:
        c_exact(1, 20000)
    finally:
        sys.settrace(None)
    assert count <= 1.25 * _WARM_OPCODES, count


def test_c_exact_domain():
    with pytest.raises(ValueError):
        c_exact(-1, 1)
    with pytest.raises(ValueError):
        c_exact(1, 30, k_max=9)
    with pytest.raises(ValueError):
        c_exact(1, 30, k_max=20)  # below tail-bound validity threshold


def test_c_exact_json_schema():
    import jsonschema
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "src/qsign/schemas/exact.schema.json").read_text()
    )
    payload = c_exact(1, 20).to_dict()
    jsonschema.validate(payload, schema)


# -- tail bound -------------------------------------------------------------------


# c_exact at its defaults with every radius rounded up: rounded, tail_bound as
# (man, exp), and err rounded up at five digits. Error bars may only shrink;
# the tail bound is tail_bound_op's integer bound rounded up once to 128 bits.
PINNED_ROWS = {
    (1, 10): (1, (254764032900871395797806287228328664651, -121), "3.495e-39"),
    (1, 29): (2, (254764032900871395797806287228328664651, -121), "6.7515e-39"),
    (1, 117): (-16, (3217322293967167579998480056986974509, -115), "5.3633e-38"),
    (1, 300): (65561, (175836759567320841114706779622502706239, -121), "1.9404e-34"),
    (-1, 10): (1, (254764032900871395797806287228328664651, -121), "3.2009e-39"),
    (-1, 103): (63, (206187817055971351813693222253048857053, -121), "1.8893e-37"),
    (-1, 300): (83312, (175836759567320841114706779622502706239, -121), "2.4616e-34"),
}

# the tail bound's bits when each ErrReal operation rounded its radius to
# nearest and padded it by 2^(6-prec) relative; the pinned bits may only be lower
PADDED_TAILS = {
    (1, 10): (9399133828216989296835857458604612488659676352748413324549, -186),
    (1, 29): (9399133828216989296835857458604612488659676352748413324549, -186),
    (1, 117): (237396483837809873796123911294911232238247957071804946703, -181),
    (1, 300): (3243615702488767027431305991012228202473315366807820174515, -185),
    (-1, 10): (9399133828216989296835857458604612488659676352748413324549, -186),
    (-1, 103): (7606987784696697484649276220480602117015879861082373109583, -186),
    (-1, 300): (3243615702488767027431305991012228202473315366807820174515, -185),
}


def _assert_pinned_tail(bound, delta, n):
    man, exp = bound.man, bound.exp
    assert (man, exp) == PINNED_ROWS[(delta, n)][1]
    padded_man, padded_exp = PADDED_TAILS[(delta, n)]
    assert Fraction(man) * Fraction(2) ** exp <= Fraction(padded_man) * Fraction(2) ** padded_exp


@pytest.mark.parametrize("delta,n", sorted(PINNED_ROWS))
def test_c_exact_error_bars_only_shrink(delta, n):
    rounded, _, err = PINNED_ROWS[(delta, n)]
    ev = c_exact(delta, n)
    assert ev.rounded == rounded
    _assert_pinned_tail(ev.tail_bound, delta, n)
    assert ev.err <= mpf(err)


def test_divisor_partials_are_integer_floors_keyed_by_width():
    # the prefix sums are integers at 2^-w, w = max(prec, 96) + 32, kept per
    # width: 64 and 96 bits share w = 128, and 128 bits has w = 160; each
    # step adds d(k) floor(2^w k^(-3/2)), decided by its square
    _DIVISOR_PARTIALS.clear()
    _TAIL_BOUNDS.clear()
    for prec in (64, 96, 128):
        tail_bound_op(1, 300, 500, prec)
    assert sorted(_DIVISOR_PARTIALS) == [128, 160]
    for w, partials in _DIVISOR_PARTIALS.items():
        assert len(partials) == 101
        for k in range(1, 101):
            step, count = partials[k] - partials[k - 1], sum(1 for m in range(1, k + 1) if k % m == 0)
            assert step % count == 0
            m = step // count
            assert m * m * k**3 <= 1 << 2 * w < (m + 1) ** 2 * k**3, (w, k)


@pytest.mark.parametrize("delta,n", [(1, 10), (1, 117), (1, 300)])
def test_tail_bound_op_is_pinned(delta, n):
    # at K = 50, 107, 170, bit-identical whether the divisor-tail prefix
    # sums and the finished bounds start empty or were already extended
    # past K//5
    K = default_k_max(delta, n)
    _DIVISOR_PARTIALS.clear()
    _TAIL_BOUNDS.clear()
    first = tail_bound_op(delta, n, K)
    tail_bound_op(delta, n, 500)
    again = tail_bound_op(-delta, 10, K)
    for bound in (first, again):
        _assert_pinned_tail(bound, delta, n)


@pytest.mark.parametrize("delta,n", [(1, 300), (-1, 103)])
def test_definitive_flips_exactly_where_the_totals_reach_one_half(delta, n, monkeypatch):
    # with the tail at the exact complement of gap + err to 1/2 on the
    # totals at 2^-2w the sum is not below 1/2; one unit of 2^-2w less is
    import qsign.exactformula as ef

    w, parts = _summands(ef, delta, n, 128)
    value, err = map(sum, zip(*parts.values()))
    half = 1 << 2 * w - 1
    rounded = (value + half) >> 2 * w
    complement = half - abs(value - (rounded << 2 * w)) - err
    for units, definitive in ((complement, False), (complement - 1, True)):
        tail = mpmath.mp.make_mpf(from_man_exp(units, -2 * w))
        monkeypatch.setattr(ef, "tail_bound_op", lambda *args: tail)
        ev = c_exact(delta, n)
        assert (ev.rounded, ev.tail_bound, ev.definitive) == (rounded, tail, definitive)


def test_exact_decisions_build_no_ball():
    # c_exact, tail_bound_op (its partial sums included) and
    # bessel_bound_checks decide on integers or exact dyadics: none calls
    # pi_err, builds an ErrReal or calls a ball's sqrt or exp (mp.exp sets
    # bessel_i1's target, math.sqrt the message of a refused cutoff)
    for func in (c_exact, tail_bound_op, bessel_bound_checks):
        tree = ast.parse(inspect.getsource(func))
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if not (isinstance(node.func.value, ast.Name) and node.func.value.id in ("mp", "math")):
                    called.add(node.func.attr)
        assert not called & {"pi_err", "ErrReal", "sqrt", "exp"}, func.__name__

    def names(func):
        return {node.id for node in ast.walk(ast.parse(inspect.getsource(func))) if isinstance(node, ast.Name)}

    # zeta_3_2 is an integer kernel: it names neither mp nor mpf; and no
    # bound opens a precision block or calls pi_err
    assert not names(zeta_3_2) & {"mp", "mpf"}
    for func in (c_exact, tail_bound_op, error_bound_total):
        assert not names(func) & {"working_precision", "pi_err"}, func.__name__


def test_tail_bound_validity_threshold():
    # (4 pi/5) sqrt(3 * 53) ~ 31.7 at n = 10
    with pytest.raises(ValueError):
        tail_bound_op(1, 10, 31)
    assert tail_bound_op(1, 10, 32) > 0


def test_tail_bound_validity_test_is_the_ball_test_on_either_side_of_the_threshold():
    # for every n <= 20000 of both signs: K = ceil(t) passes and K = ceil(t)
    # - 1 raises, t = (4 pi/5) sqrt(3 nn) at 256 bits, and t is far enough
    # from an integer for any 128-bit test to decide the same; on every
    # 25th n, K < (4/5) pi sqrt(3 nn) on the upper ends of 160-bit integer
    # pairs rejects exactly the same one of the two cutoffs
    from qsign.exactformula import _pi_root_pairs

    for delta, first in ((1, 1), (-1, 2)):
        for n in range(first, 20001):
            nn = shifted_index(delta, n)
            with mpmath.workprec(256):
                t = 4 * mpmath.pi / 5 * mpmath.sqrt(3 * nn)
                top = int(mpmath.ceil(t))
                assert min(top - t, t - (top - 1)) > mpf(2) ** -100, (delta, n)
            assert tail_bound_op(delta, n, top) > 0
            with pytest.raises(ValueError):
                tail_bound_op(delta, n, top - 1)
            if n % 25 == 0:
                (_, pi), (_, root) = _pi_root_pairs(160, 3 * nn)
                assert [5 * K << 320 < 4 * pi * root for K in (top - 1, top)] == [True, False], (delta, n)


def test_tail_bound_decreases_and_vanishes():
    n = 30
    k0 = default_k_max(1, n)
    prev = None
    ratios = []
    for mult in (1, 2, 4, 8):
        bound = tail_bound_op(1, n, k0 * mult)
        if prev is not None:
            ratios.append(float(prev / bound))
        assert prev is None or bound < prev
        prev = bound
    # the divisor-weighted tail halves slower than sqrt(2) per doubling
    assert all(1.15 <= r < 1.5 for r in ratios)


def test_tail_bound_below_full_constant_form():
    # full-constant form: (32 pi^2/125 + 108 sqrt6 pi^2/125) zeta(3/2)^2,
    # by mpmath at 256 bits
    with mpmath.workprec(256):
        pi2 = mpmath.pi**2
        full = (pi2 * 32 / 125 + pi2 * mpmath.sqrt(6) * 108 / 125) * mpmath.zeta(mpf(3) / 2) ** 2
        assert tail_bound_op(1, 30, default_k_max(1, 30)) < full


def test_tail_bound_is_a_valid_truncation_bound():
    # |partial(K2) - partial(K1)| <= tail_bound(K1)
    for delta, n in ((1, 40), (-1, 33)):
        k1 = default_k_max(delta, n)
        e1 = c_exact(delta, n, k_max=k1)
        e2 = c_exact(delta, n, k_max=2 * k1)
        assert abs(e2.value - e1.value) <= e1.tail_bound


# -- main term and sign soundness ---------------------------------------------------


def test_main_term_sign_follows_positive_residues():
    # For n >= 50 the main term dominates nothing yet, but its sign is the
    # cosine's sign, which matches the claimed pattern class by class.
    for delta in (1, -1):
        for n in range(50, 70):
            m = main_term(delta, n)
            assert m.lo > 0 or m.hi < 0
            expected_positive = n % 10 in POSITIVE_RESIDUES[delta]
            assert (m.lo > 0) == expected_positive


def test_cosine_lower_bound_over_classes():
    # |cos(2 pi (4/25 + 3n/10))| >= |cos(13 pi/25)| for every class n mod 10,
    # by mpmath's cospi at 256 bits, independent of the root tables
    with mpmath.workprec(256):
        floor = abs(mpmath.cospi(mpf(13) / 25))
        worst = min(abs(mpmath.cospi(mpf(2 * (16 + 30 * n)) / 100)) for n in range(10))
        assert worst >= floor - mpf("1e-60")
        # and the delta=-1 analogue with |cos(14 pi/25)|
        floor_m = abs(mpmath.cospi(mpf(14) / 25))
        worst_m = min(abs(mpmath.cospi(mpf(2 * (12 - 10 * n)) / 100)) for n in range(10))
        assert worst_m >= floor_m - mpf("1e-60")


def test_error_bound_total_conclusive_at_thresholds():
    s1 = main_error_split(1, 2929)
    assert s1.conclusive
    assert s1.error_bound / abs(s1.main.value) < 1
    s2 = main_error_split(-1, 2234)
    assert s2.conclusive


# the last n of each class n mod 5 (in order 0..4) at which main_error_split
# is not conclusive, over every n from 12 to 3000
LAST_INCONCLUSIVE = {1: (1075, 826, 2187, 843, 999), -1: (940, 816, 867, 1178, 1579)}


@pytest.mark.parametrize("delta", [1, -1])
def test_main_error_split_turns_conclusive_at_each_class_threshold(delta):
    for residue, n in enumerate(LAST_INCONCLUSIVE[delta]):
        assert n % 5 == residue
        assert not main_error_split(delta, n).conclusive, n
        assert main_error_split(delta, n + 5).conclusive, n + 5


def test_error_bound_ratio_decreasing_on_sample():
    prev = None
    for n in (3000, 5000, 10000):
        s = main_error_split(1, n)
        ratio = s.error_bound / abs(s.main.value)
        assert prev is None or ratio < prev
        prev = ratio


def test_sign_soundness_where_conclusive():
    series = {d: q10_series(d, 2935) for d in (1, -1)}
    for delta in (1, -1):
        for n in (2929, 2930, 2934):
            split = main_error_split(delta, n)
            if not split.conclusive:
                continue
            coeff = series[delta].coefficient(n)
            main = split.main
            assert main.lo > 0 or main.hi < 0
            assert (coeff > 0) == (main.lo > 0)


def test_error_bound_domain():
    with pytest.raises(ValueError):
        error_bound_total(1, 8)  # corrected index needs n >= 9
    with pytest.raises(ValueError):
        error_bound_total(-1, 11)


# -- threshold inequality --------------------------------------------------------------


def test_threshold_values_at_paper_cutoffs():
    v1 = threshold_lhs(1, 2929)
    assert v1.hi < 1
    assert v1.value > mpf("0.99")  # the inequality is sharp there
    assert v1.err < mpf("1e-6") * v1.value
    v2 = threshold_lhs(-1, 2234)
    assert v2.hi < 1
    assert v2.value > mpf("0.99")


def test_threshold_fails_just_below_cutoffs():
    assert threshold_lhs(1, 2928).lo > 1
    assert threshold_lhs(-1, 2233).lo > 1


def test_threshold_not_yet_effective_at_small_n():
    assert threshold_lhs(1, 100).lo > 1


def test_threshold_decreasing_sample():
    prev = None
    for n in (2929, 3000, 4000, 10000, 100000):
        v = threshold_lhs(1, n)
        assert v.hi < 1
        assert prev is None or v.value < prev
        prev = v.value


def test_threshold_reciprocal_sample_points():
    for n in (2234, 2500, 10000):
        assert threshold_lhs(-1, n).hi < 1


def threshold_reference(delta, n):
    """The displayed closed form pref (term1 + term2 + term3), in plain
    mpmath at 4x the precision threshold_lhs runs at, and that precision."""
    nn = 5 * n + 8 if delta == 1 else 5 * n - 8
    prec = 4 * max(96, nn.bit_length() // 2 + 32)
    sqrt, exp = mpmath.sqrt, mpmath.exp
    with mpmath.workprec(prec):
        pi, nn, z = mpmath.pi, mpf(nn), mpmath.zeta(1.5)
        c = abs(mpmath.cos((13 if delta == 1 else 14) * pi / 25))
        nn14 = sqrt(sqrt(nn))
        pref = 2 * sqrt(2) * sqrt(nn * sqrt(nn)) / (sqrt(sqrt(3)) * sqrt(pi) * c) * exp(-(2 * pi / 25) * sqrt(3 * nn))
        term1 = (8 + 27 * sqrt(6)) * 4 * pi**2 / 125 * z**2
        term2 = 32 * sqrt(2) * sqrt(sqrt(2)) * pi * exp((2 * pi / 25) * sqrt(2 * nn)) / (25 * nn14)
        term3 = 432 * sqrt(sqrt(3)) * pi * exp((pi / 25) * sqrt(3 * nn)) / (25 * nn14)
        return pref * (term1 + term2 + term3), prec


@pytest.mark.parametrize("delta, low, threshold", [(1, 8, 2929), (-1, 12, 2234)])
def test_threshold_lhs_encloses_the_displayed_form(delta, low, threshold):
    for n in (low, 100, threshold - 1, threshold, 5000, 10**5, 10**44):
        v = threshold_lhs(delta, n)
        ref, prec = threshold_reference(delta, n)
        with mpmath.workprec(prec):
            assert abs(v.value - ref) <= v.err, (delta, n)


# the 15 digits that verify reports and the error bounds of the lhs at
# criterion 2's points, as the product pref (term1 + term2 + term3) gave
# them (bounds rounded up): the monomial form prints the same digits, with
# no wider error
_THRESHOLD_DIGITS = {
    (1, 2929): ("0.998718959037577", "1.935e-26"),
    (-1, 2234): ("0.999423762988538", "1.440e-26"),
    (1, 5000): ("0.0674229683487699", "1.556e-27"),
    (-1, 5000): ("0.0226773331247011", "4.555e-28"),
    (1, 10**5): ("2.71827369278734e-20", "2.382e-45"),
    (-1, 10**5): ("9.1168859766595e-21", "7.794e-46"),
}


def test_threshold_lhs_keeps_its_digits_and_narrows_its_error():
    for (delta, n), (digits, err) in _THRESHOLD_DIGITS.items():
        v = threshold_lhs(delta, n)
        assert mpmath.mp.nstr(v.value, 15) == digits, (delta, n)
        assert v.err <= mpf(err), (delta, n)


def test_threshold_lhs_meets_its_goal_in_one_pass(monkeypatch):
    # nn = 5 10^44 + 8 has 149 bits: one pass at 106 bits, where a search
    # from 96 bits needed a second pass at 192; an earlier call first, so
    # that the spied call shows zeta(3/2) is read again on every call
    import qsign.exactformula as ef

    threshold_lhs(1, 10**44)
    calls = []

    def spy(w):
        calls.append(w)
        return zeta_3_2(w)

    monkeypatch.setattr(ef, "zeta_3_2", spy)
    v = threshold_lhs(1, 10**44)
    assert len(calls) == 1
    assert v.hi < 1
    assert v.err < mpf(10) ** -7 * v.value


def test_threshold_domain():
    with pytest.raises(ValueError):
        threshold_lhs(1, 7)
    with pytest.raises(ValueError):
        threshold_lhs(-1, 11)
    with pytest.raises(ValueError):
        threshold_lhs(2, 100)


def test_default_k_max_monotone():
    assert default_k_max(1, 10) == 50  # floor applies
    assert default_k_max(1, 300) > default_k_max(1, 100) > 50
