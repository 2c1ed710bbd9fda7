"""Tests for the modular backbone at 256-bit working precision.

References: eta(i) = Gamma(1/4) / (2 pi^(3/4)); the classical value of the
(1,5) multiplier is e^(i pi / 5) (Dedekind sum 1/5); the multiplier's
exponent is checked exactly against the Dedekind sum's definition and
reciprocity law, and numerically against a two-point solve from eta;
everything else is checked by comparing two independently evaluated sides.
"""

import ast
import inspect
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import exp, mpc, mpf, pi, sqrt

from qsign import modularcheck
from qsign.arithmetic import neg_inverse, unit_root
from qsign.modularcheck import (
    _GUARD_BITS,
    _MULTIPLIER_TUPLES,
    PoleError,
    _exp_ball,
    _fixed_exp,
    _fixed_mul,
    _multiplier_records,
    _qpochhammer,
    _triple_product_record,
    eta,
    f_eval,
    f_series_agreement,
    growth_classifier,
    omega_hk,
    theta,
    transformation_check_detail,
)
from qsign.numerics import ErrComplex, ErrReal, working_precision
from qsign.qseries import TruncatedSeries

PREC = 256
TARGET = mpf(10) ** -40


def as_mpc(ec):
    return mpc(ec.re.value, ec.im.value)


def test_theta_odd_vanishes_at_origin():
    with working_precision(PREC):
        for tau in (mpc("0.2", "0.9"), mpc("-0.3", "0.55")):
            v = theta(0, tau, TARGET, PREC)
            assert abs(as_mpc(v)) <= v.re.err + v.im.err + TARGET


def test_theta_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        theta(0, mpc(0, -1), TARGET, PREC)
    with pytest.raises(ValueError):
        theta(0, mpc(1, 0), TARGET, PREC)
    with pytest.raises(ValueError):
        theta(0, mpc(0, 1), 0, PREC)


def searched_theta_terms(w, tau, target):
    """The least M, tried in turn, whose first omitted n0 = M + 1/2 has
    term ratio below 1/2 and four times its term below target."""
    t, beta = tau.imag, abs(w.imag)
    M = 1
    while True:
        n0 = mpf(2 * M + 1) / 2
        ratio = exp(-pi * t * (2 * n0 + 1) + 2 * pi * beta)
        bound = exp(-pi * t * n0 * n0 + 2 * pi * beta * n0)
        if ratio < 0.5 and 4 * bound < target:
            return M, 2 * bound
        M += 1


def test_theta_terms_cap():
    # a term ratio below 1/2 needs n0 > log 2 / (2 pi Im tau), about 110,000
    # at Im tau = 1e-6 and 120,000 for eta at 3e-7 (theta at 3 tau)
    with pytest.raises(RuntimeError):
        theta(mpc(0), mpc(0, "1e-6"), mpf(2) ** -PREC, PREC)
    with pytest.raises(RuntimeError):
        eta(mpc(0, "3e-7"), mpf(2) ** -PREC, PREC)


def direct_theta(w, tau, target, prec):
    """theta at 2 prec bits term by term, far past theta's own truncation,
    with the sum of the term moduli over the searched 2M terms and the old
    bound 2 tail + absum (2M+8) 2^(4-prec) on theta's radius."""
    with working_precision(prec):
        M, tail = searched_theta_terms(w, tau, target)
        far, _ = searched_theta_terms(w, tau, target * mpf(2) ** -prec)
    with working_precision(2 * prec):

        def term(m):
            return exp(pi * 1j * (tau * (2 * m + 1) ** 2 / mpf(4) + (2 * m + 1) * (w + mpf(1) / 2)))

        total = sum(term(m) for m in range(-far, far))
        absum = sum(abs(term(m)) for m in range(-M, M))
        return total, 2 * tail + absum * (2 * M + 8) * mpf(2) ** (4 - prec)


def assert_theta_encloses(w, tau, target, prec):
    v = theta(w, tau, target, prec)
    total, old_radius = direct_theta(w, tau, target, prec)
    with working_precision(2 * prec):
        assert abs(v.re.value - total.real) <= v.re.err, (w, tau, target)
        assert abs(v.im.value - total.imag) <= v.im.err, (w, tau, target)
        assert v.re.err <= old_radius and v.im.err <= old_radius, (w, tau, target)


@pytest.fixture(scope="module")
def suite_with_theta_calls():
    """validation_suite's records and the arguments of its theta calls."""
    calls = []
    real = modularcheck.theta

    def recording(w, tau, target_err, prec=PREC):
        calls.append((mpc(w), mpc(tau), mpf(target_err), prec))
        return real(w, tau, target_err, prec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modularcheck, "theta", recording)
        records = modularcheck.validation_suite(PREC)
    return records, calls


def test_suite_record_mix(suite_with_theta_calls):
    records, _ = suite_with_theta_calls
    assert Counter(r.check for r in records) == {
        "triple-product": 20,
        "quasi-periodicity": 4,
        "eta-transformation": 10,
        "theta-transformation": 10,
        "leading-asymptotic": 2,
        "cusp-transformation": 11,
        "series-agreement": 2,
        "conjugation-symmetry": 2,
        "growth-classification": 2,
        "eta-at-i": 1,
    }
    assert len(records) == 64
    assert all(r.passed for r in records)


# validation_suite's 64 records at 256 bits when theta took its truncation
# index from a closed-form Gaussian solve and charged four times the growing
# side's first omitted term: (check, params, tolerance), each record passing.
# Error bars may only shrink.
MODULAR_PINS = [
    ("triple-product", {"w": "(0.3 + 0.1j)", "tau": "(0.2 + 0.9j)"}, 5.365229692792388e-39),
    ("triple-product", {"w": "(0.14767333750724220831074262605397962033748626708984375 + 0.284206148174634132264060326633625663816928863525390625j)", "tau": "(0.40902388914303633438152019152767024934291839599609375 + 0.91115718976933990358446635582367889583110809326171875j)"}, 1.3773466983604605e-39),
    ("triple-product", {"w": "(0.32605488326895326611776226854999549686908721923828125 + 0.10332434680535251825261866542859934270381927490234375j)", "tau": "(0.350014092319067326997128475341014564037322998046875 + 0.60526238192826464779017214823397807776927947998046875j)"}, 7.178940470478365e-39),
    ("triple-product", {"w": "(-0.389499106723893373516176552584511227905750274658203125 - 0.171132052095220144050102817345759831368923187255859375j)", "tau": "(-0.20918876028634236785563871308113448321819305419921875 + 1.128572141600489242563298830646090209484100341796875j)"}, 2.7520091402650594e-39),
    ("triple-product", {"w": "(0.05698675740828618163646979155601002275943756103515625 + 0.15443598559193361108299313855241052806377410888671875j)", "tau": "(0.10881216044952790600319758596015162765979766845703125 + 0.8941421705083840709704645632882602512836456298828125j)"}, 1.1621126630337633e-39),
    ("triple-product", {"w": "(-0.3282238606190170937537686768337152898311614990234375 - 0.0031235494495145399440616529318504035472869873046875j)", "tau": "(0.06407228953431076678981526129064150154590606689453125 + 0.9506869654189011864531266837730072438716888427734375j)"}, 3.7085905572678755e-39),
    ("triple-product", {"w": "(-0.1285559097798678607205147272907197475433349609375 + 0.257969598323268545225772641060757450759410858154296875j)", "tau": "(-0.29873318834727224935221556734177283942699432373046875 + 1.096154946265420537798718214617110788822174072265625j)"}, 1.4670222226125578e-39),
    ("triple-product", {"w": "(-0.091622258157198988026692632047343067824840545654296875 + 0.240612471067879474251327565070823766291141510009765625j)", "tau": "(0.0589540682945328686770380954840220510959625244140625 + 0.83903198584934812753743926805327646434307098388671875j)"}, 1.920389499433205e-39),
    ("triple-product", {"w": "(0.064547968466093508244085796832223422825336456298828125 - 0.1524992755336830596579744678820134140551090240478515625j)", "tau": "(0.0784999078449997167439278200617991387844085693359375 + 1.348370083274125885708372152294032275676727294921875j)"}, 3.196606666595001e-40),
    ("triple-product", {"w": "(0.08745983968113002493538488124613650143146514892578125 - 0.268515229039014424738951447579893283545970916748046875j)", "tau": "(0.42600319440226408485017373095615766942501068115234375 + 1.3216566019036746215675748317153193056583404541015625j)"}, 1.0584318384857518e-39),
    ("triple-product", {"w": "(-0.128055791646928207594413606784655712544918060302734375 + 0.129721483954252925219208236740087158977985382080078125j)", "tau": "(-0.11890747073914298415076018500258214771747589111328125 + 1.31811636726337244596152231679297983646392822265625j)"}, 2.9170463381177678e-39),
    ("triple-product", {"w": "(0.060186580783922305482036563262226991355419158935546875 - 0.0957788555112011608105859750139643438160419464111328125j)", "tau": "(0.42184781970821461083431813676725141704082489013671875 + 1.3757453423944696613290261666406877338886260986328125j)"}, 2.668923216779078e-41),
    ("triple-product", {"w": "(0.1867340176622593883593026475864462554454803466796875 - 0.1003208465458956533122858445494784973561763763427734375j)", "tau": "(0.28120913556448601244852625313797034323215484619140625 + 1.151319300033568193697419701493345201015472412109375j)"}, 1.8617110621963956e-40),
    ("triple-product", {"w": "(-0.1624230559227996251170367258964688517153263092041015625 + 0.0608479860784740811396886783768422901630401611328125j)", "tau": "(0.434990505015352635354020094382576644420623779296875 + 0.65312935451978770817760278077912516891956329345703125j)"}, 5.57648975669778e-39),
    ("triple-product", {"w": "(0.05926920812339553368275346656446345150470733642578125 - 0.252772281414801847088114072903408668935298919677734375j)", "tau": "(-0.18903941444266358917758452662383206188678741455078125 + 0.865049065983718445949079978163354098796844482421875j)"}, 2.943901529682791e-39),
    ("triple-product", {"w": "(0.013211911513120899730466817345586605370044708251953125 - 0.204462721774132660801370775516261346638202667236328125j)", "tau": "(-0.3953461046493418340475045624771155416965484619140625 + 0.819576016447010946563977995538152754306793212890625j)"}, 1.4657601094180645e-39),
    ("triple-product", {"w": "(-0.11721302580007775251402790672727860510349273681640625 + 0.211495516429805519020845849809120409190654754638671875j)", "tau": "(-0.0122685388779395498914936979417689144611358642578125 + 1.1391996210795169996998765782336704432964324951171875j)"}, 9.281359092293859e-40),
    ("triple-product", {"w": "(0.31904112915073123968312529541435651481151580810546875 + 0.028410025585604625764091224482399411499500274658203125j)", "tau": "(-0.33869637075286218586001041330746375024318695068359375 + 1.14533070121445490485712070949375629425048828125j)"}, 3.4815227701889255e-40),
    ("triple-product", {"w": "(0.37880229121524333635306902579031884670257568359375 + 0.02768142935753825639721981133334338665008544921875j)", "tau": "(0.19503053250074564584082281726296059787273406982421875 + 0.6665512688102683824808991630561649799346923828125j)"}, 2.543503587076762e-39),
    ("triple-product", {"w": "(0.262263589122033291545221800333820283412933349609375 + 0.0209466665859583400788324070163071155548095703125j)", "tau": "(-0.32096287838954429272320112431771121919155120849609375 + 0.713586363095458864336251281201839447021484375j)"}, 3.521400458041381e-40),
    ("quasi-periodicity", {"lambda": 1, "mu": 0}, 4.375925191307388e-44),
    ("quasi-periodicity", {"lambda": 0, "mu": 1}, 1.4434288537232702e-45),
    ("quasi-periodicity", {"lambda": 1, "mu": 1}, 4.375925191307388e-44),
    ("quasi-periodicity", {"lambda": 2, "mu": 1}, 2.1125834544663206e-40),
    ("eta-transformation", {"h": 1, "k": 5, "z": "(1.0 + 0.0j)"}, 1.6215254119365512e-41),
    ("theta-transformation", {"h": 1, "k": 5, "z": "(1.0 + 0.0j)", "w": "(0.3 + 0.1j)"}, 3.3632170117202657e-39),
    ("eta-transformation", {"h": 2, "k": 5, "z": "(0.8 + 0.0j)"}, 1.566775304797251e-43),
    ("theta-transformation", {"h": 2, "k": 5, "z": "(0.8 + 0.0j)", "w": "(0.2 - 0.1j)"}, 6.489512690970685e-42),
    ("eta-transformation", {"h": 3, "k": 5, "z": "(1.1 + 0.0j)"}, 4.4442284403530716e-46),
    ("theta-transformation", {"h": 3, "k": 5, "z": "(1.1 + 0.0j)", "w": "(0.15 + 0.05j)"}, 3.1347723153754105e-40),
    ("eta-transformation", {"h": 1, "k": 10, "z": "(0.9 + 0.0j)"}, 8.33603038101751e-46),
    ("theta-transformation", {"h": 1, "k": 10, "z": "(0.9 + 0.0j)", "w": "(0.1 + 0.2j)"}, 3.6599048655065587e-40),
    ("eta-transformation", {"h": 3, "k": 10, "z": "(1.0 + 0.0j)"}, 7.030141957428068e-42),
    ("theta-transformation", {"h": 3, "k": 10, "z": "(1.0 + 0.0j)", "w": "(0.25 + 0.1j)"}, 1.278286246036822e-41),
    ("eta-transformation", {"h": 7, "k": 10, "z": "(1.2 + 0.3j)"}, 7.894176381358185e-40),
    ("theta-transformation", {"h": 7, "k": 10, "z": "(1.2 + 0.3j)", "w": "(0.2 + 0.1j)"}, 4.7968019256070365e-40),
    ("eta-transformation", {"h": 9, "k": 10, "z": "(0.7 + 0.0j)"}, 3.054457457476189e-42),
    ("theta-transformation", {"h": 9, "k": 10, "z": "(0.7 + 0.0j)", "w": "(-0.1 + 0.15j)"}, 4.325583168291217e-39),
    ("eta-transformation", {"h": 2, "k": 15, "z": "(1.0 + 0.0j)"}, 6.37391806751047e-40),
    ("theta-transformation", {"h": 2, "k": 15, "z": "(1.0 + 0.0j)", "w": "(0.3 - 0.05j)"}, 6.794169496177418e-43),
    ("eta-transformation", {"h": 4, "k": 15, "z": "(1.3 + 0.0j)"}, 7.453762831798422e-42),
    ("theta-transformation", {"h": 4, "k": 15, "z": "(1.3 + 0.0j)", "w": "(0.1 + 0.1j)"}, 1.6669378198882165e-39),
    ("eta-transformation", {"h": 7, "k": 20, "z": "(0.85 + 0.0j)"}, 7.249590792992165e-40),
    ("theta-transformation", {"h": 7, "k": 20, "z": "(0.85 + 0.0j)", "w": "(0.2 + 0.05j)"}, 6.929465048165978e-40),
    ("leading-asymptotic", {"a": 0.1, "b": 0.2}, 10.0),
    ("leading-asymptotic", {"a": 0.3, "b": 0.2}, 10.0),
    ("cusp-transformation", {"h": 1, "k": 5, "z": "(1.0 + 0.0j)"}, 1.7413857229743806e-42),
    ("cusp-transformation", {"h": 2, "k": 5, "z": "(1.0 + 0.0j)"}, 8.408376684838485e-45),
    ("cusp-transformation", {"h": 3, "k": 5, "z": "(0.8 + 0.0j)"}, 1.76880463628754e-40),
    ("cusp-transformation", {"h": 4, "k": 5, "z": "(1.2 + 0.0j)"}, 3.764845883024144e-43),
    ("cusp-transformation", {"h": 1, "k": 10, "z": "(1.0 + 0.0j)"}, 5.928615018407228e-52),
    ("cusp-transformation", {"h": 3, "k": 10, "z": "(0.8 + 0.0j)"}, 3.4762580145644625e-41),
    ("cusp-transformation", {"h": 7, "k": 10, "z": "(1.2 + 0.3j)"}, 3.7514441129355694e-43),
    ("cusp-transformation", {"h": 9, "k": 10, "z": "(0.9 + 0.0j)"}, 6.663566711942469e-47),
    ("cusp-transformation", {"h": 2, "k": 15, "z": "(1.0 + 0.0j)"}, 5.159915353093144e-40),
    ("cusp-transformation", {"h": 7, "k": 15, "z": "(1.1 - 0.2j)"}, 1.892275448090075e-40),
    ("cusp-transformation", {"h": 3, "k": 20, "z": "(0.95 + 0.0j)"}, 5.071268757078721e-41),
    ("series-agreement", {"tau": "(0.1 + 0.5j)", "order": 60}, 2.1174461346688135e-65),
    ("series-agreement", {"tau": "(0.37 + 0.8j)", "order": 60}, 1.2960709696520014e-51),
    ("conjugation-symmetry", {"tau": "(0.21 + 0.6j)"}, 4.754523502680829e-47),
    ("conjugation-symmetry", {"tau": "(-0.32 + 0.75j)"}, 2.995398947529825e-50),
    ("growth-classification", {"variant": "direct"}, 0.0),
    ("growth-classification", {"variant": "reciprocal"}, 0.0),
    ("eta-at-i", {"tau": "(0.0 + 1.0j)"}, 5.100189871090126e-41),
]


def test_suite_error_bars_only_shrink(suite_with_theta_calls):
    records, _ = suite_with_theta_calls
    assert len(records) == len(MODULAR_PINS)
    for record, (check, params, tolerance) in zip(records, MODULAR_PINS):
        assert (record.check, record.params, record.passed) == (check, params, True), record
        assert record.tolerance <= tolerance, record


def test_theta_encloses_the_direct_sum_on_the_suite_calls(suite_with_theta_calls):
    _, calls = suite_with_theta_calls
    assert len(calls) == 130
    for w, tau, target, prec in calls:
        assert_theta_encloses(w, tau, target, prec)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.5, 0.5),
    st.floats(math.log10(0.005), math.log10(5)),
    st.floats(-0.5, 0.5),
    st.floats(-1.5, 1.5),
    st.integers(64, PREC + 32),
    st.sampled_from([128, PREC]),
)
@example(0.0, 0.6875, 0.0, 1.5, 64, 128)  # growing terms with |q| ~ 2^-44
@example(0.0, 0.0, 0.0, 0.0, 142, 128)  # a target below theta's unit 2^-W
@example(0.0, -3.3, -0.5, 0.0, 64, 128)  # in-phase terms; the term ratio binds
def test_theta_encloses_the_direct_sum(tau_re, log_t, w_re, w_im_ratio, target_bits, prec):
    # |Im w| up to 1.5 Im tau: the terms grow by up to e^(2.25 pi Im tau)
    # before they decay; targets below 2^-prec leave theta's own error
    # as the larger part of the radius. The first example is where the
    # guard's allowance for the relative error of a small q counts, which
    # test_theta_guard_keeps_growing_terms_to_the_value_s_last_place pins
    t = mpf(10) ** log_t
    with working_precision(prec):
        tau = mpc(tau_re, t)
        w = mpc(w_re, w_im_ratio * t)
    assert_theta_encloses(w, tau, mpf(2) ** -target_bits, prec)


def test_theta_guard_keeps_growing_terms_to_the_value_s_last_place():
    # terms growing by e^(2.25 pi Im tau) with |q| ~ 2^-44, all real and
    # positive: q's relative error, carried into the largest terms, would
    # leave the radius about 2^13 units of the value's last place at prec
    # bits; the guard's allowance for it keeps the radius near one
    t = mpf(10) ** 0.6875
    for prec in (128, PREC):
        with working_precision(prec):
            v = theta(mpc(0, 1.5 * t), mpc(0, t), mpf(2) ** -(prec + 64), prec)
            bound = abs(mpc(v.re.value, v.im.value)) * mpf(2) ** (4 - prec)
            assert v.re.err <= bound and v.im.err <= bound, (prec, v)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-0.5, 0.5),
    st.floats(0.3, 2),
    st.floats(-0.5, 0.5),
    st.floats(-0.3, 0.3),
    st.integers(64, PREC),
)
def test_qpochhammer_encloses_the_direct_product(tau_re, tau_im, w_re, w_im, target_bits):
    # a = e^(2 pi i w) and q = e^(2 pi i tau) rounded to exact points of the
    # 2^-W grid; the direct product at 2 PREC bits runs until a q^j < 2^-2PREC
    W = PREC + _GUARD_BITS
    with working_precision(2 * PREC):
        a, q = (exp(2j * pi * mpc(x, y)) for x, y in ((w_re, w_im), (tau_re, tau_im)))
        a_fix, q_fix = ((int(z.real * 2**W), int(z.imag * 2**W), 0) for z in (a, q))
    with working_precision(PREC):
        re, im, err = _qpochhammer(a_fix, q_fix, mpf(2) ** -target_bits, W)
    with working_precision(2 * PREC):
        a, q = (mpc(x, y) / 2**W for x, y, _ in (a_fix, q_fix))
        direct = mpc(1)
        while abs(a) > mpf(2) ** (-2 * PREC):
            direct *= 1 - a
            a *= q
        assert abs(direct - mpc(re, im) / 2**W) <= mpf(err) / 2**W


def test_fixed_exp_is_the_same_at_every_ambient_precision():
    # the width is an argument: x() is formed and exponentiated at w + 8
    # bits whatever the caller's precision, and the charge reads w alone
    with working_precision(PREC):
        tau = mpc("0.2", "0.9")
    triples = set()
    for bits in (53, 64, PREC + 8, 2 * PREC):
        with working_precision(bits):
            triples.add(_fixed_exp(lambda: 2j * pi * tau, 13, PREC))
    assert len(triples) == 1
    with working_precision(53):
        assert _fixed_exp(lambda: mpc(0), 1, PREC)[:2] == (1 << PREC, 0)


def test_fixed_point_kernels_name_no_global_precision():
    # integers carry their width: these kernels read neither mpmath's
    # context mp nor an mpf rounded at the ambient precision
    for kernel in (_fixed_exp, _fixed_mul, _qpochhammer):
        tree = ast.parse(inspect.getsource(kernel))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"mp", "mpf"}, kernel.__name__


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_exp_ball_encloses_mpmaths_exp(prec):
    # x exact and uniform in the disc |x| <= size, so size bounds all it is
    # formed from; at |e^x| >= e^-4 the radius is within the old 2^(4-prec) pad
    rng = random.Random(prec)
    for _ in range(60):
        size = rng.choice([1, 2, 4])
        r, angle = size * rng.random() ** 0.5, 2 * math.pi * rng.random()
        x = mpc(r * math.cos(angle), r * math.sin(angle))
        with working_precision(prec):
            ball = _exp_ball(lambda: x, size)
        with working_precision(2 * prec):
            ref = exp(x)
            assert abs(ball.re.value - ref.real) <= ball.re.err, x
            assert abs(ball.im.value - ref.imag) <= ball.im.err, x
            assert max(ball.re.err, ball.im.err) <= abs(ref) * mpf(2) ** (4 - prec), x


@pytest.fixture(scope="module")
def triple_product_points():
    """The (w, tau) of validation_suite's triple-product records."""
    points = []
    real = modularcheck._triple_product_record

    def recording(w, tau, prec):
        points.append((w, tau))
        return real(w, tau, prec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modularcheck, "_triple_product_record", recording)
        modularcheck.validation_suite(PREC)
    return points


def exp_balls(monkeypatch, run):
    """run()'s result and the balls its _exp_ball calls returned, in order."""
    balls = []
    real = modularcheck._exp_ball

    def recording(x, size):
        balls.append(real(x, size))
        return balls[-1]

    monkeypatch.setattr(modularcheck, "_exp_ball", recording)
    result = run()
    monkeypatch.setattr(modularcheck, "_exp_ball", real)
    return result, balls


def assert_encloses(ball, z):
    with working_precision(512):
        assert abs(ball.re.value - z.real) <= ball.re.err, z
        assert abs(ball.im.value - z.imag) <= ball.im.err, z
        assert max(ball.re.err, ball.im.err) <= abs(z) * mpf(2) ** (4 - PREC), z


def test_prefactor_balls_enclose_the_mpmath_expressions(monkeypatch, triple_product_points):
    # each _exp_ball prefactor against the mpmath expression it replaced, at
    # 512 bits on the same arguments; radii within the narrowest old pad
    assert len(triple_product_points) == 20
    for w, tau in triple_product_points:
        record, balls = exp_balls(monkeypatch, lambda: _triple_product_record(w, tau, PREC))
        assert record.passed and len(balls) == 1
        with working_precision(512):
            assert_encloses(balls[0], -1j * exp(pi * 1j * tau / 4) / sqrt(exp(2j * pi * w)))
    for h, k, z, w in _MULTIPLIER_TUPLES:
        records, balls = exp_balls(monkeypatch, lambda: _multiplier_records(h, k, z, w, PREC))
        assert all(r.passed for r in records) and len(balls) == 4
        with working_precision(PREC):
            zc, wc = mpc(*z), mpc(*w)
            taus = ((h + 1j * zc) / k, (neg_inverse(h, k) + 1j / zc) / k)
        with working_precision(512):
            assert_encloses(balls[0], 1j * exp(pi * 1j * taus[0] / 3))
            assert_encloses(balls[1], 1 / sqrt(zc))
            assert_encloses(balls[2], 1j * exp(pi * 1j * taus[1] / 3))
            assert_encloses(balls[3], sqrt(1j / zc) * exp(-pi * k * wc * wc / zc))


def test_triple_product_records_fail_on_the_other_branch(monkeypatch, triple_product_points):
    # the prefactor's exponent turned by a half-turn: zeta^(1/2) on the
    # wrong branch negates the right side
    real = modularcheck._exp_ball
    monkeypatch.setattr(modularcheck, "_exp_ball", lambda x, size: real(lambda: x() + pi * 1j, size + 4))
    records = [_triple_product_record(w, tau, PREC) for w, tau in triple_product_points]
    assert len(records) == 20 and not any(r.passed for r in records)


@pytest.mark.parametrize("w_re", ["0.7", "-0.9", "1.3", "-1.45"])
def test_triple_product_holds_beyond_the_principal_strip(w_re):
    # theta(w + 1) = -theta(w) while the products have period 1, so the
    # prefactor's zeta^(-1/2) is e^(-pi i w), not the principal root of zeta
    record = _triple_product_record(mpc(w_re, "0.1"), mpc("0.2", "0.9"), PREC)
    assert record.passed, record


def test_triple_product_at_spec_point():
    # theta = -i q^(1/8) zeta^(-1/2) (q;q)(zeta;q)(q/zeta;q) to 1e-20
    with working_precision(PREC):
        w = mpc("0.3", "0.1")
        tau = mpc("0.2", "0.9")
        lhs = as_mpc(theta(w, tau, TARGET, PREC))
        q = exp(2j * pi * tau)
        zeta = exp(2j * pi * w)

        def poch(a, terms=200):
            prod = mpc(1)
            x = mpc(a)
            for _ in range(terms):
                prod *= 1 - x
                x *= q
            return prod

        rhs = -1j * exp(pi * 1j * tau / 4) / sqrt(zeta) * poch(q) * poch(zeta) * poch(q / zeta)
        assert abs(lhs - rhs) < mpf(10) ** -20


def test_quasi_periodicity():
    with working_precision(PREC):
        w = mpc("0.17", "0.21")
        tau = mpc("0.31", "0.77")
        q = exp(2j * pi * tau)
        zeta = exp(2j * pi * w)
        base = theta(w, tau, TARGET, PREC)
        basec = as_mpc(base)
        for lam, mu in ((1, 0), (0, 1), (1, 1), (2, 1)):
            lhs = as_mpc(theta(w + lam * tau + mu, tau, TARGET, PREC))
            fac = (-1) ** (lam + mu) * q ** (-mpf(lam * lam) / 2) * zeta ** (-lam)
            rhs = fac * basec
            # the prefactor amplifies the base error bound
            budget = 4 * abs(fac) * (base.re.err + base.im.err) + mpf(10) ** -38
            assert abs(lhs - rhs) < budget


def test_eta_at_i():
    with working_precision(PREC):
        v = eta(mpc(0, 1), TARGET, PREC)
        with mpmath.workdps(60):
            ref = mpmath.gamma(mpf(1) / 4) / (2 * mpmath.pi ** mpf("0.75"))
        assert abs(v.re.value - ref) <= v.re.err + mpf(10) ** -55
        assert abs(v.im.value) <= v.im.err


@pytest.mark.parametrize("prec", [128, 256])
def test_eta_encloses_reference(prec):
    # the last tau has |q| = e^(-2 pi 0.0168) ~ 0.9: theta(tau; 3 tau) sums
    # 68 terms at 256 bits
    for tau in (mpc(0, 1), mpc("0.2", "0.8"), mpc("-0.45", "0.3"), mpc("0.1", "0.0168")):
        with working_precision(prec):
            v = eta(tau, mpf(2) ** -prec, prec)
        with mpmath.workprec(prec + 100):
            ref = exp(pi * 1j * tau / 12) * mpmath.qp(exp(2j * pi * tau))
            assert abs(v.re.value - ref.real) <= v.re.err
            assert abs(v.im.value - ref.imag) <= v.im.err


def test_eta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        eta(mpc(0, -1), TARGET, PREC)
    with pytest.raises(ValueError):
        eta(mpc(1, 0), TARGET, PREC)
    with pytest.raises(ValueError):
        eta(mpc(0, 1), 0, PREC)


def test_eta_shift_by_one():
    with working_precision(PREC):
        tau = mpc("0.2", "0.8")
        lhs = as_mpc(eta(tau + 1, TARGET, PREC))
        rhs = exp(pi * 1j / 12) * as_mpc(eta(tau, TARGET, PREC))
        assert abs(lhs - rhs) < mpf(10) ** -40


def test_eta_inversion_at_2i():
    with working_precision(PREC):
        tau = mpc(0, 2)
        lhs = as_mpc(eta(-1 / tau, TARGET, PREC))
        rhs = sqrt(-1j * tau) * as_mpc(eta(tau, TARGET, PREC))
        assert abs(lhs - rhs) < mpf(10) ** -40


def dedekind_sum(h, k):
    """s(h, k) = sum_{r mod k} ((r/k)) ((hr/k)), by its definition in Fractions."""

    def saw(x):
        return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)

    return sum(saw(Fraction(r, k)) * saw(Fraction(h * r, k)) for r in range(k))


COPRIME_GRID = [(h, k) for k in range(1, 61) for h in range(k) if math.gcd(h, k) == 1]


def test_omega_is_6k_times_the_dedekind_sum():
    for h, k in COPRIME_GRID:
        assert omega_hk(h, k) == 6 * k * dedekind_sum(h, k), (h, k)


def test_dedekind_reciprocity():
    for h, k in COPRIME_GRID:
        if h == 0:
            continue
        lhs = Fraction(omega_hk(h, k), 6 * k) + Fraction(omega_hk(k, h), 6 * h)
        assert lhs == (Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12 - Fraction(1, 4), (h, k)


def test_omega_trivial_level():
    # omega_{0,1} = omega_{1,1} = 1
    assert omega_hk(0, 1) == 0
    assert omega_hk(1, 1) == 0


def test_omega_1_5_is_tenth_root():
    # D = 6k s(1, 5) = 6, so omega = zeta_60^6 = e^(i pi/5), a tenth root of unity
    assert omega_hk(1, 5) == 6
    with working_precision(PREC):
        omega = unit_root(omega_hk(1, 5), 60, PREC)
        with mpmath.workdps(80):
            ref = mpmath.exp(1j * mpmath.pi / 5)
        assert abs(as_mpc(omega) - ref) < mpf(10) ** -70


def solved_omega(h, k, z):
    """omega solved from eta((h+iz)/k) = e^(pi i (h-h')/12k) omega^-1 z^(-1/2) eta((h'+i/z)/k)."""
    hp = neg_inverse(h, k)
    num = eta((hp + 1j / z) / k, TARGET, PREC)
    den = eta((h + 1j * z) / k, TARGET, PREC)
    phase = exp(pi * 1j * (h - hp) / (12 * k)) / sqrt(z)
    pad = abs(phase) * mpf(2) ** (4 - PREC)
    return ErrComplex(ErrReal(phase.real, pad), ErrReal(phase.imag, pad)) * num / den


def test_omega_sample_point_independence():
    # the multiplier solved at z and at z + 1/4 encloses the closed form
    # zeta_{12k}^D each time, at the suite's tuples and two more levels
    tuples = [(h, k, z) for h, k, z, _ in _MULTIPLIER_TUPLES] + [(1, 1, ("0.9",)), (5, 12, ("0.8",))]
    with working_precision(PREC):
        for h, k, z in tuples:
            closed = unit_root(omega_hk(h, k), 12 * k, PREC)
            for zz in (mpc(*z), mpc(*z) + mpf(1) / 4):
                solved = solved_omega(h, k, zz)
                assert max(solved.re.err, solved.im.err) < mpf(10) ** -35, (h, k, zz)
                diff = (solved - closed).abs()
                assert diff.value <= max(solved.re.err, solved.im.err) + max(closed.re.err, closed.im.err) + diff.err, (h, k, zz)


def test_omega_multiplier_unit_circle_various():
    # the multiplier solved from eta lies on the unit circle and is a
    # 24k-th root of unity; the closed form's exponent agrees, as D is
    # an integer with zeta_{12k}^(24k D) = 1
    with working_precision(PREC):
        for h, k in ((2, 5), (3, 10), (7, 10), (4, 15)):
            m = as_mpc(solved_omega(h, k, mpc("0.8")))
            assert abs(abs(m) - 1) < mpf(10) ** -40, (h, k)
            assert abs(m ** (24 * k) - 1) < mpf(10) ** -30, (h, k)
            assert isinstance(omega_hk(h, k), int)
            closed = as_mpc(unit_root(omega_hk(h, k), 12 * k, PREC))
            assert abs(m - closed) < mpf(10) ** -35, (h, k)


def test_multiplier_records_fail_with_the_conjugate_multiplier(monkeypatch):
    with working_precision(PREC):
        good = _multiplier_records(1, 5, ("1",), ("0.3", "0.1"), PREC)
    assert [r.check for r in good] == ["eta-transformation", "theta-transformation"]
    assert all(r.passed for r in good)
    real = modularcheck.omega_hk
    monkeypatch.setattr(modularcheck, "omega_hk", lambda h, k: -real(h, k))
    with working_precision(PREC):
        bad = _multiplier_records(1, 5, ("1",), ("0.3", "0.1"), PREC)
    assert [r.passed for r in bad] == [False, False]


def test_suite_checks_eta_at_i_against_its_closed_form(monkeypatch):
    # the transformation records compare eta with itself; only the eta-at-i
    # record sees eta without its factor i, a constant that cancels there
    records = modularcheck.validation_suite(PREC)
    assert [r.check for r in records].count("eta-at-i") == 1
    assert records[-1].check == "eta-at-i" and records[-1].passed
    real = modularcheck.eta

    def eta_without_i(tau, target_err, prec=PREC):
        v = real(tau, target_err, prec)
        return ErrComplex(v.im, -v.re)  # v / i

    monkeypatch.setattr(modularcheck, "eta", eta_without_i)
    failed = [r.check for r in modularcheck.validation_suite(PREC) if not r.passed]
    assert failed == ["eta-at-i"]


# the records that evaluate no _exp_ball: f_eval or theta alone, or integers
_NO_EXP_BALL = {"conjugation-symmetry", "leading-asymptotic", "growth-classification"}


@pytest.mark.parametrize("prec", [256, 384, 512])
def test_suite_passes_within_its_reported_tolerance(prec):
    # a passing record's two enclosures meet, so its midpoint gap lies
    # within the hypot of the difference's radii, which no fixed slack widens
    records = modularcheck.validation_suite(prec)
    assert len(records) == 64 and all(r.passed for r in records)
    assert all(r.abs_diff <= r.tolerance for r in records)
    balls = [r for r in records if r.check not in ("leading-asymptotic", "growth-classification")]
    assert len(balls) == 60 and all(r.tolerance < 1e-35 for r in balls)


def test_every_record_using_a_shifted_exp_ball_fails(monkeypatch):
    # a 1e-30 shift on every _exp_ball value is far outside radii near 1e-40
    real = modularcheck._exp_ball
    monkeypatch.setattr(modularcheck, "_exp_ball", lambda x, size: real(x, size) + ErrReal(mpf(10) ** -30))
    records = modularcheck.validation_suite(PREC)
    assert sum(not r.passed for r in records) == 58
    assert all(r.passed == (r.check in _NO_EXP_BALL) for r in records)


def test_series_records_fail_with_a_corrupted_coefficient(monkeypatch):
    # c_1(10) off by one moves the right side by |q|^10, 1.5e-22 at the
    # larger Im tau, far outside the series records' radii (below 1e-50)
    real = modularcheck.q10_series_product

    def corrupted(delta, order):
        coeffs = list(real(delta, order).coeffs)
        coeffs[10] += 1
        return TruncatedSeries(coeffs, order)

    monkeypatch.setattr(modularcheck, "q10_series_product", corrupted)
    failed = [r.check for r in modularcheck.validation_suite(PREC) if not r.passed]
    assert failed == ["series-agreement", "series-agreement"]


def test_omega_rejects_bad_inverse():
    with pytest.raises(ValueError):
        omega_hk(2, 10)  # gcd(h,k) != 1
    with pytest.raises(ValueError):
        omega_hk(1, 0)  # k < 1


def test_f_eval_matches_series():
    for tau in (mpc("0.1", "0.5"), mpc("0.37", "0.8")):
        assert f_series_agreement(tau, PREC).passed


def test_f_eval_refuses_a_denominator_it_cannot_tell_from_zero():
    # at a target error of 100 the denominator's ball holds 0
    with pytest.raises(PoleError, match="^theta denominator indistinguishable from zero$"):
        f_eval(mpc("0.1", "0.5"), 100, 64)


def test_f_conjugation_symmetry():
    with working_precision(PREC):
        tau = mpc("0.21", "0.64")
        a = as_mpc(f_eval(-mpc(tau).conjugate(), TARGET, PREC))
        b = mpc(as_mpc(f_eval(tau, TARGET, PREC))).conjugate()
        assert abs(a - b) < mpf(10) ** -40


@pytest.mark.parametrize(
    "h,k,z",
    [
        (2, 5, mpc(1)),
        (3, 10, mpc("0.8")),
        (7, 10, mpc("1.2", "0.3")),
        (1, 5, mpc("0.9", "-0.2")),
        (4, 15, mpc("1.05")),
    ],
)
def test_transformation_check(h, k, z):
    record = transformation_check_detail(h, k, z, PREC)
    assert record.passed
    assert record.abs_diff < 1e-15


def test_transformation_rejects_bad_z():
    with pytest.raises(ValueError):
        transformation_check_detail(2, 5, mpc("-1"), PREC)


def test_growth_classification_exhaustive():
    import math

    # growth exactly on (5, {2,3}) and (10, {3,7})
    got = {
        (d, nu2)
        for d in (5, 10)
        for nu2 in range(d)
        if math.gcd(nu2, d) == 1 and growth_classifier(d, nu2)
    }
    assert got == {(5, 2), (5, 3), (10, 3), (10, 7)}


def test_growth_classification_reciprocal_exhaustive():
    import math

    got = {
        (d, nu2)
        for d in (5, 10)
        for nu2 in range(d)
        if math.gcd(nu2, d) == 1 and growth_classifier(d, nu2, -1)
    }
    assert got == {(5, 1), (5, 4), (10, 1), (10, 9)}


def test_growth_classifier_complement_identity():
    import math

    # the two criteria are sign-flips of each other (the quantity never vanishes)
    for d in (5, 10):
        for nu2 in range(d):
            if math.gcd(nu2, d) != 1:
                continue
            assert growth_classifier(d, nu2) != growth_classifier(d, nu2, -1)


def test_growth_classifier_domain():
    with pytest.raises(ValueError):
        growth_classifier(7, 1)
    with pytest.raises(ValueError):
        growth_classifier(5, 5)
    with pytest.raises(ValueError):
        growth_classifier(10, 4)  # shares a factor with 10
    with pytest.raises(ValueError):
        growth_classifier(5, 2, 0)  # delta is +1 or -1
