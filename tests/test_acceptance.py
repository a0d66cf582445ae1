"""Acceptance suite: one test per criterion, one PASS line each.

Every tolerance is pinned here. Exact criteria compare big integers
and fractions directly; the single statistical criterion uses the
stated sampling bound. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import math
import random
from fractions import Fraction

from oracles import (
    count_feasible_sums,
    count_integers_in_bad,
    gram_det,
    is_reduced,
    lp_eq_vertex,
    lp_ineq_vertex,
    svp_min_norm_sq,
)
from sscert.branching import (
    CertifyStatus,
    _lp_vertices,
    certify,
    coverage_stats,
    enumerate_intervals,
    infeasible_coverage_report,
    lp_extreme_eq,
    lp_extreme_ineq,
)
from sscert.decompose import decompose_frank_tardos, decompose_lll_rows
from sscert.diophantine import dioph_approx
from sscert.intmath import l1_norm
from sscert.lll import Basis, lll_reduce
from sscert.model import generate_instance
from sscert.oracle import feasible


def report(line):
    print(line, flush=True)


def check_good_intervals(a, v):
    """Certified betas vs good-interval members, for every integer beta.

    For each beta in {0, ..., ||a||_1} compares the definition (the
    certify range test) against membership in some open interval
    (max(a,k), min(a,k+1)); returns the verdict and any counterexamples
    as (beta, certified, in_interval) triples.
    """
    good = [
        tuple(Fraction(*end) for end in lp_extreme_ineq(a, v, k)) for k in range(sum(v))
    ]
    mismatches = []
    for beta in range(sum(a) + 1):
        certified = certify(a, v, beta).status is CertifyStatus.CERTIFIED
        in_interval = any(lo < beta < hi for lo, hi in good)
        if certified != in_interval:
            mismatches.append((beta, certified, in_interval))
    return not mismatches, tuple(mismatches)


def test_criterion_1_decomposition_bounds_exact():
    checked = 0
    for n in (10, 11, 12):
        for seed in range(5):
            inst = generate_instance(n, seed)
            dec = decompose_frank_tardos(inst)
            v_l1 = l1_norm(dec.v)
            r_l1 = l1_norm(dec.residual)
            assert v_l1 <= 1 << (2 * n * n)
            assert r_l1 * (1 << (n + 2)) <= dec.scale
            assert dec.scale >= 1 << (n + 2)
            assert dec.reconstruct_a() == tuple(Fraction(x) for x in inst.a)
            checked += 1
    assert checked == 15
    report("PASS criterion 1: direction/residual/scale bounds exact on "
           "n in {10,11,12} x 5 seeds")


def test_criterion_2_approximation_contract_exact():
    rnd = random.Random(2002)
    for _ in range(500):
        n = rnd.randint(1, 6)
        alpha = tuple(
            Fraction(rnd.randint(-1000, 1000), rnd.randint(1, 1000)) for _ in range(n)
        )
        precision = rnd.randint(1, 64)
        result = dioph_approx(alpha, precision)
        err = max(abs(result.q * a - v) for a, v in zip(alpha, result.v))
        assert err * precision <= 1  # ||q alpha - v||_inf <= 1/N, cleared
        assert 1 <= result.q
        assert result.q**4 <= (1 << (n * (n + 1))) * precision ** (4 * n)
    report("PASS criterion 2: 500 random approximations meet both bounds exactly")


def _random_hand_instance(rnd):
    style = rnd.random()
    while True:
        if style < 0.3:
            # consecutive-weights family around a large base
            n = rnd.randint(3, 10)
            base = rnd.randint(50, 400)
            a = tuple(base + i for i in range(n))
            v = (1,) * n
        else:
            # perturbed scale * v + r construction
            n = rnd.randint(3, 16)
            v = tuple(rnd.randint(1, 3) for _ in range(n))
            scale = rnd.randint(20, 60)
            r = tuple(rnd.randint(-2, 2) for _ in range(n))
            a = tuple(scale * vi + ri for vi, ri in zip(v, r))
            if min(a) < 1:
                continue
        if math.gcd(*a) == 1:
            return a, v


def test_criterion_3_soundness_exhaustive():
    rnd = random.Random(3003)
    counterexamples = 0
    for _ in range(50):
        a, v = _random_hand_instance(rnd)
        total = sum(a)
        for beta in range(-5, total + 6):
            result = certify(a, v, beta)
            if result.status is CertifyStatus.NO_CERTIFICATE:
                continue
            if feasible(a, beta).feasible:
                counterexamples += 1
    assert counterexamples == 0
    report("PASS criterion 3: every certified beta on 50 instances (n <= 16) "
           "is oracle-infeasible, zero counterexamples")


def test_criterion_4_interval_characterization_exhaustive():
    rnd = random.Random(4004)
    checked = 0
    while checked < 200:
        n = rnd.randint(2, 6)
        a = tuple(rnd.randint(1, 80) for _ in range(n))
        if sum(a) > 500 or math.gcd(*a) != 1:
            continue
        v = tuple(rnd.randint(0, 3) for _ in range(n))
        if max(v) == 0:
            continue
        ok, mismatches = check_good_intervals(a, v)
        assert ok, (a, v, mismatches)
        checked += 1
    report("PASS criterion 4: certified set equals the good-interval union on "
           "200 random (a, v), no discrepancies")


def test_criterion_5_interval_counting_exact():
    toy_a, toy_v = (100, 101, 102), (1, 1, 1)
    toy_scale = Fraction(101)
    toy_res = (Fraction(-1), Fraction(0), Fraction(1))
    cover = enumerate_intervals(toy_a, toy_v, toy_scale, toy_res)
    lengths = [hi - lo for lo, hi in cover.good]
    assert lengths == [100, 99, 100]
    assert min(lengths) >= toy_scale - 2
    assert count_integers_in_bad(cover) == 8 <= 12
    stats = coverage_stats(toy_a, toy_v, toy_scale, toy_res, "exact")
    assert stats.bad_fraction == Fraction(8, 304)

    rnd = random.Random(5005)
    instances = 0
    while instances < 20:
        n = rnd.randint(2, 6)
        v = tuple(rnd.randint(1, 3) for _ in range(n))
        scale = rnd.randint(15, 80)
        r = tuple(rnd.randint(-3, 3) for _ in range(n))
        a = tuple(scale * vi + ri for vi, ri in zip(v, r))
        if min(a) < 1:
            continue
        scale_f = Fraction(scale)
        res_f = tuple(Fraction(x) for x in r)
        cover = enumerate_intervals(a, v, scale_f, res_f)
        r_l1 = l1_norm(res_f)
        assert all(hi - lo >= scale_f - r_l1 for lo, hi in cover.good)
        assert len(cover.good) <= sum(v)
        chain = [x for pair in cover.bad for x in pair]
        assert chain == sorted(chain)
        for i in range(len(cover.bad) - 1):
            assert cover.bad[i][1] < cover.bad[i + 1][0]
        stats = coverage_stats(a, v, scale_f, res_f, "exact")
        assert stats.bad_fraction <= 2 * (r_l1 + 1) / scale_f
        instances += 1
    report("PASS criterion 5: exact interval lengths, counts, interlacing, and "
           "coverage bound on every enumerable instance")


def test_criterion_6_pipeline_coverage_statistical():
    for seed in (42, 43):
        inst = generate_instance(10, seed)
        dec = decompose_frank_tardos(inst)
        sample_size = 10**4
        stats = coverage_stats(
            inst.a, dec.v, dec.scale, dec.residual, "sampled",
            sample_size=sample_size, seed=seed + 1,
        )
        bound = float(stats.bad_fraction_bound)
        sigma = math.sqrt(bound * (1 - bound) / sample_size)
        observed = stats.b / sample_size
        assert observed <= 10 * bound + 3 * sigma, (observed, bound)
        assert stats.bad_fraction_bound < Fraction(1, 1 << 11)
    report("PASS criterion 6: sampled uncertified fraction within "
           "10x bound + 3 sigma on n=10 pipeline instances (10^4 draws each)")


def test_pipeline_coverage_exact():
    # the exact counts over all of [0, ||a||_1], beside the sampled criterion 6
    runs = [(10, decompose_frank_tardos), (12, decompose_frank_tardos),
            (14, decompose_frank_tardos), (20, decompose_lll_rows)]
    for n, method in runs:
        inst = generate_instance(n, 1)
        dec = method(inst)
        stats = coverage_stats(inst.a, dec.v, dec.scale, dec.residual, "exact")
        assert stats.g + stats.b == sum(inst.a) + 1
        assert 0 < stats.bad_fraction <= stats.bad_fraction_bound
        cor1 = infeasible_coverage_report(inst.a, dec.v)
        assert cor1.certified == stats.g
        share = Fraction(stats.g, sum(inst.a) + 1 - count_feasible_sums(inst.a))
        assert cor1.lower <= share <= cor1.upper
        assert (cor1.verdict == "holds") == (stats.bad_fraction <= stats.two_pow_n_bound)
        assert cor1.verdict == "holds"
    report("PASS exact coverage: bad fraction within 2(||r||_1 + 1)/scale and "
           "Corollary 1's 1 - 2^-n on FT n = 10, 12, 14 and lll_rows n = 20")


def _random_basis(rnd, d, bound):
    while True:
        cols = [[rnd.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
        if gram_det(cols) != 0:
            return cols


def test_criterion_7_reduction_quality_and_invariants():
    rnd = random.Random(7007)
    for _ in range(60):
        d = rnd.randint(2, 5)
        cols = _random_basis(rnd, d, 50)
        red = lll_reduce(Basis(cols))
        first = sum(x * x for x in red.basis.cols[0])
        assert first <= (1 << (d - 1)) * svp_min_norm_sq(cols)

    for _ in range(1000):
        d = rnd.randint(2, 8)
        cols = _random_basis(rnd, d, 30)
        basis = Basis(cols)
        red = lll_reduce(basis)
        assert is_reduced(red.basis.cols)
        ident = tuple(
            tuple(
                sum(red.U[i][t] * red.U_inv[t][j] for t in range(d))
                for j in range(d)
            )
            for i in range(d)
        )
        assert ident == tuple(
            tuple(1 if i == j else 0 for j in range(d)) for i in range(d)
        )
        assert gram_det(red.basis.cols) == gram_det(cols)
    report("PASS criterion 7: first-vector quality (d <= 5, exhaustive oracle) "
           "and reduction invariants on 1000 random bases (d <= 8)")


def test_criterion_8_greedy_lp_equals_vertex_enumeration():
    rnd = random.Random(8008)
    for _ in range(1000):
        n = rnd.randint(1, 8)
        a = tuple(rnd.randint(1, 60) for _ in range(n))
        v = tuple(rnd.randint(0, 4) for _ in range(n))
        if max(v) == 0:
            v = v[:-1] + (1,)
        beta = rnd.randint(0, sum(a))
        pairs = lp_extreme_eq(a, v, beta)
        for sense, pair, (value, arg) in zip(("min", "max"), pairs, _lp_vertices(a, v, beta)):
            assert Fraction(*pair) == value == lp_eq_vertex(a, v, beta, sense)
            assert sum(ai * xi for ai, xi in zip(a, arg)) == beta
            assert sum(1 for x in arg if 0 < x < 1) <= 1
        for k in range(sum(v)):
            hi, lo = (Fraction(*end) for end in lp_extreme_ineq(a, v, k))
            assert hi == lp_ineq_vertex(a, v, k, "max")
            assert lo == lp_ineq_vertex(a, v, k + 1, "min")
    report("PASS criterion 8: greedy LP values equal vertex enumeration on "
           "1000 random instances (n <= 8)")
