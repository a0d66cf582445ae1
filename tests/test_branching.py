import copy
import math
import pickle
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace
from fractions import Fraction
from itertools import product

import pytest

from oracles import (
    certificate_bounds_hold,
    count_integers_in_bad,
    greedy_fill_pair,
    greedy_order_cmp,
    lp_eq_greedy,
    lp_eq_vertex,
    lp_ineq_greedy,
    lp_ineq_vertex,
    subset_feasible_naive,
)
from sscert import branching
from sscert.branching import (
    Certificate,
    CertifyResult,
    Claim,
    CertifyStatus,
    _ascending,
    _bad_count,
    _greedy_order,
    _lp_vertices,
    _prepared,
    certify,
    coverage_stats,
    enumerate_intervals,
    lp_extreme_eq,
    lp_extreme_ineq,
    verify_certificate,
    witnesses_consistent,
)
from sscert.decompose import decompose_frank_tardos, decompose_lll_rows
from sscert.errors import CapacityError, DomainError
from sscert.intmath import l1_norm
from sscert.model import Direction, Weights, generate_instance
from sscert.rng import SplitMix64

TOY_A = (100, 101, 102)
TOY_V = (1, 1, 1)
TOY_SCALE = Fraction(101)
TOY_RESIDUAL = (Fraction(-1), Fraction(0), Fraction(1))


def random_small_instance(rnd, nmax=8, wmax=60, vmax=4):
    n = rnd.randint(1, nmax)
    a = tuple(rnd.randint(1, wmax) for _ in range(n))
    v = tuple(rnd.randint(0, vmax) for _ in range(n))
    if max(v) == 0:
        v = v[:-1] + (1,)
    return a, v


def exhaustive_small_instances(vmax=2):
    """Every a in {1..4}^n and nonzero v in {0..vmax}^n for n <= 3."""
    for n in (1, 2, 3):
        for a in product(range(1, 5), repeat=n):
            for v in product(range(vmax + 1), repeat=n):
                if any(v):
                    yield a, v


SENSES = ("min", "max")  # the order of lp_extreme_eq's two ends

# the pipeline instances of the certify tests, at seeds 1 and 2
PIPELINES = [
    (decompose_frank_tardos, 10),
    (decompose_frank_tardos, 11),
    (decompose_frank_tardos, 12),
    (decompose_frank_tardos, 13),
    (decompose_frank_tardos, 14),
    (decompose_lll_rows, 20),
]
PIPELINE_IDS = ["ft10", "ft11", "ft12", "ft13", "ft14", "rows20"]


def certify_by_greedy(a, v, beta):
    """The CertifyResult that the greedy-fill referee gives."""
    if not 0 <= beta <= sum(a):
        return CertifyResult(CertifyStatus.TRIVIALLY_INFEASIBLE, beta)
    vmin, arg_min = lp_eq_greedy(a, v, beta, "min")
    vmax, arg_max = lp_eq_greedy(a, v, beta, "max")
    if math.floor(vmax) < vmin:
        cert = Certificate(beta, math.floor(vmin), vmin, vmax, arg_min, arg_max)
        return CertifyResult(CertifyStatus.CERTIFIED, beta, cert)
    return CertifyResult(CertifyStatus.NO_CERTIFICATE, beta)


# in range and out of it, integral or not
NOT_INTS = [Fraction(1, 2), Fraction(2), Fraction(-1, 2), 0.5, 2.0, 1e30]


def values(ends):
    """lp_extreme_eq's integer pairs as Fractions."""
    return tuple(Fraction(*end) for end in ends)


def witnesses(cert):
    """A certificate's (vmin, vmax, arg_min, arg_max), which == does not compare."""
    return cert.vmin, cert.vmax, cert.arg_min, cert.arg_max


def full(result):
    """A CertifyResult beside its certificate's witnesses, or None without one."""
    cert = result.certificate
    return result, None if cert is None else witnesses(cert)


class TestLpExtremeEq:
    """The integer pairs of lp_extreme_eq, and the vertices of _lp_vertices."""

    def test_toy_min_and_max(self):
        (value, arg), (vmax, _) = _lp_vertices(TOY_A, TOY_V, 150)
        assert value == Fraction(149, 101)
        assert sum(a * x for a, x in zip(TOY_A, arg)) == 150
        assert sum(1 for x in arg if 0 < x < 1) <= 1
        # vertex enumeration puts the maximum at 151/101
        assert vmax == lp_eq_vertex(TOY_A, TOY_V, 150, "max") == Fraction(151, 101)
        assert lp_extreme_eq(TOY_A, TOY_V, 150) == ((149, 101), (151, 101))

    def test_endpoints(self):
        # at either end of [0, ||a||_1] the relaxation is one 0/1 point
        assert _lp_vertices((2, 3, 4), (1, 1, 1), 0) == ((0, (0, 0, 0)),) * 2
        assert _lp_vertices((2, 3, 4), (1, 1, 1), 9) == ((3, (1, 1, 1)),) * 2
        assert lp_extreme_eq((2, 3, 4), (1, 1, 1), 0) == ((0, 1),) * 2
        assert lp_extreme_eq((2, 3, 4), (1, 1, 1), 9) == ((3, 1),) * 2

    def test_out_of_range_signals(self):
        for beta in (-1, 10):
            with pytest.raises(DomainError):
                lp_extreme_eq((2, 3, 4), (1, 1, 1), beta)
            with pytest.raises(DomainError):
                _lp_vertices((2, 3, 4), (1, 1, 1), beta)

    def test_checked_vectors_of_other_lengths_are_refused(self):
        # each is checked on its own, so a Weights and a Direction can
        # still differ in length; every entry point compares the lengths
        a = Weights((3, 5, 7))
        cert = certify(a, (1, 2, 2), 11).certificate
        for v in (Direction((1, 2)), Direction((1, 2, 2, 1))):
            for call, point in product(
                (certify, lp_extreme_eq, _lp_vertices, lp_extreme_ineq), (-1, 1)
            ):
                with pytest.raises(DomainError, match="length"):
                    call(a, v, point)
            assert verify_certificate(a, v, cert) is False

    def test_zero_direction_entries_carry_weight(self):
        # the v_i = 0 item must absorb weight for feasibility
        (value, arg), _ = _lp_vertices((5, 1), (0, 1), 5)
        assert value == 0
        assert arg == (1, 0)
        assert lp_extreme_eq((5, 1), (0, 1), 5)[0] == (0, 1)

    def test_matches_vertex_enumeration(self):
        rnd = random.Random(41)
        for _ in range(150):
            a, v = random_small_instance(rnd, nmax=6)
            beta = rnd.randint(0, sum(a))
            ends = zip(SENSES, values(lp_extreme_eq(a, v, beta)), _lp_vertices(a, v, beta))
            for sense, pair_value, (value, arg) in ends:
                assert pair_value == value == lp_eq_vertex(a, v, beta, sense)
                assert sum(ai * xi for ai, xi in zip(a, arg)) == beta
                assert all(0 <= x <= 1 for x in arg)
                assert sum(1 for x in arg if 0 < x < 1) <= 1

    def test_exhaustive_small_against_vertex_enumeration(self):
        for a, v in exhaustive_small_instances():
            for beta in range(sum(a) + 1):
                pairs = values(lp_extreme_eq(a, v, beta))
                vertices = _lp_vertices(a, v, beta)
                for sense, pair_value, (value, arg) in zip(SENSES, pairs, vertices):
                    want = lp_eq_vertex(a, v, beta, sense)
                    assert pair_value == value == want, (a, v, beta, sense)
                    assert sum(ai * xi for ai, xi in zip(a, arg)) == beta
                    assert sum(vi * xi for vi, xi in zip(v, arg)) == value
                    assert all(0 <= x <= 1 for x in arg)
                    assert sum(1 for x in arg if 0 < x < 1) <= 1

    def test_exhaustive_small_against_greedy_referee(self):
        # the bisection over prepared prefix sums gives the greedy fill's
        # value as unreduced integers over the split item's weight. The max
        # end fills the ascending order reversed, whose complement is the
        # ascending fill of ||a||_1 - beta, with the same split item
        for a, v in exhaustive_small_instances():
            for beta in range(sum(a) + 1):
                want = tuple(lp_eq_greedy(a, v, beta, s) for s in SENSES)
                ends = _lp_vertices(a, v, beta)
                assert ends == want, (a, v, beta)
                for value, arg in ends:
                    assert type(value) is Fraction
                    assert all(type(x) is Fraction for x in arg)
                pairs = lp_extreme_eq(a, v, beta)
                splits = (want[0][1], lp_eq_greedy(a, v, sum(a) - beta, "min")[1])
                for (num, den), (value, _), arg in zip(pairs, want, splits):
                    assert type(num) is int and type(den) is int and den > 0, pairs
                    assert Fraction(num, den) == value, (a, v, beta)
                    split = [i for i, x in enumerate(arg) if 0 < x < 1]
                    assert den == (a[split[0]] if split else 1), (a, v, beta)

    @pytest.mark.parametrize("beta", NOT_INTS)
    def test_rejects_non_integer_beta(self, beta):
        with pytest.raises(DomainError):
            lp_extreme_eq((3, 5, 7), (1, 2, 2), beta)
        with pytest.raises(DomainError):
            _lp_vertices((3, 5, 7), (1, 2, 2), beta)

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_ties_fill_the_smaller_index_first(self, sense):
        # no document carries the vertex, but certify's witnesses stay
        # deterministic: equal ratios fill the smaller index first
        value, arg = _lp_vertices((2, 2, 2), (1, 1, 1), 3)[SENSES.index(sense)]
        assert value == Fraction(3, 2)
        assert arg == (1, Fraction(1, 2), 0)
        assert lp_extreme_eq((2, 2, 2), (1, 1, 1), 3)[SENSES.index(sense)] == (3, 2)


def adjacent_ratios(rnd, digits):
    """(p, q, r, s) with weights q, s of the given digit count and p/q - r/s = 1/(q s).

    Two ratios with these weights can be no closer, so the sort keys
    must resolve exactly this gap.
    """
    while True:
        q = rnd.randrange(10 ** (digits - 1), 10**digits)
        s = rnd.randrange(10 ** (digits - 1), 10**digits)
        if math.gcd(q, s) == 1:
            break
    p = pow(s, -1, q)  # p s - r q = 1
    return p, q, (p * s - 1) // q, s


class TestGreedyOrder:
    """The integer sort keys must give the cross-multiplying referee's order."""

    # per n: weights 1..w and direction entries 0..m, every combination
    GRID = {1: (6, 4), 2: (6, 4), 3: (5, 3), 4: (3, 2), 5: (2, 2)}

    @staticmethod
    def agree(num, den):
        for sense in ("min", "max"):
            assert _greedy_order(num, den, sense) == greedy_order_cmp(num, den, sense), (
                num, den, sense,
            )

    def test_exhaustive_small_grid(self):
        # zero entries and tied ratios (1/2 = 2/4, equal pairs) included
        for n, (w, m) in self.GRID.items():
            for den in product(range(1, w + 1), repeat=n):
                for num in product(range(m + 1), repeat=n):
                    self.agree(num, den)

    @pytest.mark.parametrize(
        "decompose, n",
        [
            (decompose_frank_tardos, 10),
            (decompose_frank_tardos, 12),
            (decompose_frank_tardos, 14),
            (decompose_lll_rows, 20),
        ],
        ids=["ft10", "ft12", "ft14", "rows20"],
    )
    def test_pipeline_directions(self, decompose, n):
        inst = generate_instance(n, 1)
        self.agree(decompose(inst).v, inst.a)

    def test_closest_ratios_at_the_digit_limit(self):
        # 4,300 digits is the int/str conversion limit the documents accept
        rnd = random.Random(4300)
        for _ in range(3):
            p, q, r, s = adjacent_ratios(rnd, 4300)
            assert p * s - r * q == 1
            # the greater ratio first and last, and a tie beside each
            self.agree((p, r), (q, s))
            self.agree((r, p), (s, q))
            self.agree((p, r, 2 * r, 2 * p), (q, s, 2 * s, 2 * q))

    def test_oversized_input_is_ordered_in_bounded_time(self):
        # exact keys cost O(B^2) for B-bit weights, also when v is small
        rnd = random.Random(200)
        a = tuple(rnd.randrange(10**4299, 10**4300) for _ in range(200))
        for v in (
            tuple(rnd.randrange(256) for _ in a),
            tuple(rnd.randrange(10**4299, 10**4300) for _ in a),
        ):
            start = time.perf_counter()
            orders = [_greedy_order(v, a, sense) for sense in ("min", "max")]
            assert time.perf_counter() - start < 5
            assert orders == [greedy_order_cmp(v, a, sense) for sense in ("min", "max")]


@pytest.fixture
def sorts(monkeypatch):
    """The sense of every _greedy_order call from here on, in call order."""
    senses = []

    def recording(num, den, sense):
        senses.append(sense)
        return _greedy_order(num, den, sense)

    monkeypatch.setattr(branching, "_greedy_order", recording)
    return senses


def good_interval(a, v, level):
    """lp_extreme_ineq's two ends as Fractions."""
    return tuple(Fraction(*end) for end in lp_extreme_ineq(a, v, level))


def good_interval_by(referee, a, v, level):
    """(max(a, level), min(a, level + 1)) from a one-sided referee."""
    return referee(a, v, level, "max"), referee(a, v, level + 1, "min")


class TestLpExtremeIneq:
    def test_toy_values(self):
        assert good_interval(TOY_A, TOY_V, 1) == (102, 201)

    def test_degenerate_levels(self):
        assert good_interval(TOY_A, TOY_V, 0) == (0, 100)
        assert good_interval(TOY_A, TOY_V, 2) == (203, 303)
        # max at ||v||_1 and min at 0 are the ends of [0, ||a||_1], which
        # no good interval holds: enumerate_intervals supplies them
        bad = enumerate_intervals(TOY_A, TOY_V).bad
        assert bad[-1][1] == Fraction(303, 1)
        assert bad[0][0] == Fraction(0, 1)

    def test_level_gates(self):
        # max needs level >= 0, and min needs level + 1 <= ||v||_1 = 3
        for level in (-1, 3):
            with pytest.raises(DomainError, match="outside"):
                lp_extreme_ineq(TOY_A, TOY_V, level)
        # a Fraction level would otherwise give an LP value at a non-level
        for level in (1.0, "1", Fraction(1), Fraction(3, 2), None):
            with pytest.raises(DomainError, match="level must be an integer"):
                lp_extreme_ineq(TOY_A, TOY_V, level)

    def test_zero_direction_entries(self):
        # free coordinate: counted for max, dropped for min
        assert good_interval((7, 3), (0, 1), 0) == (7, 3)

    def test_matches_vertex_enumeration(self):
        rnd = random.Random(42)
        for _ in range(150):
            a, v = random_small_instance(rnd, nmax=6)
            for level in range(sum(v)):
                want = good_interval_by(lp_ineq_vertex, a, v, level)
                assert good_interval(a, v, level) == want, (a, v, level)

    def test_exhaustive_small_against_vertex_enumeration(self):
        for a, v in exhaustive_small_instances():
            ve = sum(v)
            for level in range(-1, ve + 2):
                if not 0 <= level < ve:
                    with pytest.raises(DomainError):
                        lp_extreme_ineq(a, v, level)
                    continue
                ends = lp_extreme_ineq(a, v, level)
                for num, den in ends:
                    assert type(num) is int and type(den) is int and den > 0, ends
                want = good_interval_by(lp_ineq_vertex, a, v, level)
                assert good_interval(a, v, level) == want, (a, v, level)
            # the referee of the pipeline-scale verify test, on both sides
            for level, sense in product(range(ve + 1), SENSES):
                vertex = lp_ineq_vertex(a, v, level, sense)
                assert lp_ineq_greedy(a, v, level, sense) == vertex, (a, v, level, sense)

    def test_monotone_in_level(self):
        rnd = random.Random(43)
        for _ in range(40):
            a, v = random_small_instance(rnd, nmax=5)
            maxs, mins = zip(*(good_interval(a, v, k) for k in range(sum(v))))
            assert list(maxs) == sorted(maxs)
            assert list(mins) == sorted(mins)


class TestOneSidedBisection:
    """The bisection of prefix sums gives the greedy fill's very (num, den)."""

    @staticmethod
    def check(a, v, levels):
        a, v = Weights(a), Direction(v)
        ve = sum(v)
        for level in levels:
            if not 0 <= level < ve:
                with pytest.raises(DomainError):
                    lp_extreme_ineq(a, v, level)
                continue
            ends = lp_extreme_ineq(a, v, level)
            # identical, not merely equal: the same unreduced integers
            assert ends == good_interval_by(greedy_fill_pair, a, v, level), (a, v, level)
        # min(a, 0) and max(a, ||v||_1) lie in no good interval: they are the
        # ends of the one-level windows at the edges, which never overlap
        for level, sense, end in ((0, "min", 0), (ve, "max", 1)):
            if level in levels:
                (bad,) = enumerate_intervals(a, v, k_lo=level, k_hi=level).bad
                want = Fraction(*greedy_fill_pair(a, v, level, sense))
                assert bad[end] == want, (a, v, level, sense)

    def test_exhaustive_small(self):
        for a, v in exhaustive_small_instances():
            self.check(a, v, range(-1, sum(v) + 2))

    @pytest.mark.parametrize(
        "decompose, n",
        [
            (decompose_frank_tardos, 10),
            (decompose_frank_tardos, 14),
            (decompose_lll_rows, 20),
        ],
        ids=["ft10", "ft14", "rows20"],
    )
    def test_pipeline_prefix_sums_and_their_neighbours(self, decompose, n):
        inst = generate_instance(n, 1)
        a, v = inst.a, decompose(inst).v
        _, _, V, _, _, _ = _ascending(a, v)
        levels = {0, sum(v)} | {s + d for s in V for d in (-1, 0, 1)}
        self.check(a, v, sorted(levels))

    @pytest.mark.parametrize(
        "a, v",
        [
            ((3, 5, 2, 4), (0, 1, 0, 2)),  # zeros apart, at the head of the order
            ((5, 3, 10, 6, 7), (0, 1, 0, 2, 0)),  # zeros, and 1/3 = 2/6 tied
            ((1, 1, 1), (0, 0, 1)),
            ((2, 4, 6), (1, 2, 3)),  # every ratio tied
            ((4, 2, 8, 6, 9), (2, 1, 4, 3, 0)),  # tied but for one zero
            ((2, 2, 2), (1, 1, 1)),  # equal items
        ],
    )
    def test_zero_entries_and_tied_ratios(self, a, v):
        self.check(a, v, range(-1, sum(v) + 2))

    def test_tie_splits_the_smaller_index(self):
        # 4/1 = 8/2 in value, but the pair names the split item's v
        # max(a, 2) ends good interval 2, and min(a, 4) good interval 3
        a, v = Weights((2, 4, 6)), Direction((1, 2, 3))
        assert lp_extreme_ineq(a, v, 2)[0] == (8, 2)
        assert lp_extreme_ineq(a, v, 3)[1] == (12 * 2 - 8, 2)
        for level in (2, 3):
            want = good_interval_by(greedy_fill_pair, a, v, level)
            assert lp_extreme_ineq(a, v, level) == want


class TestGoodIntervalFastPath:
    """lp_extreme_ineq's straight-line path against the referees, exhaustively."""

    @staticmethod
    def answers(a, v, levels):
        """lp_extreme_ineq's pairs per level, None where it refuses the level."""
        got = {}
        for level in levels:
            try:
                got[level] = lp_extreme_ineq(a, v, level)
            except DomainError:
                got[level] = None
        return got

    def test_exhaustive_small_against_the_referees(self, sorts):
        # every level from -1 to ||v||_1 + 1, through the memo, and on a miss
        # from plain tuples and from lists. One Weights object serves every v of its a,
        # and each pair's calls begin and end on checked objects, so the
        # memo holds the last v's Direction beside the same Weights when the
        # next v comes: it must test both objects
        weights = {}
        for a, v in exhaustive_small_instances(vmax=3):
            ve = sum(v)
            levels = range(-1, ve + 2)
            want = {}
            for level in levels:
                vertices = good_interval_by(lp_ineq_vertex, a, v, level)
                if None in vertices:  # an empty LP: the level is refused
                    want[level] = None
                    continue
                pairs = good_interval_by(greedy_fill_pair, a, v, level)
                assert tuple(Fraction(*pair) for pair in pairs) == vertices, (a, v, level)
                want[level] = pairs
            assert [level for level in levels if want[level] is None] == [-1, ve, ve + 1]
            checked = weights.setdefault(a, Weights(a)), Direction(v)
            lp_extreme_ineq(*checked, 0)
            sorts.clear()
            assert self.answers(*checked, levels) == want, (a, v)
            assert sorts == []  # every call a memo hit
            assert self.answers(a, v, levels) == want, (a, v)
            assert len(sorts) == len(levels)  # every call a miss and one sort
            assert self.answers(list(a), list(v), levels) == want, (a, v)
            # bad interval k is [min(a, k), max(a, k)], the edges included
            bad = tuple(
                (lp_ineq_vertex(a, v, k, "min"), lp_ineq_vertex(a, v, k, "max"))
                for k in range(ve + 1)
            )
            if all(bad[k][1] < bad[k + 1][0] for k in range(ve)):
                cover = enumerate_intervals(*checked)
                assert cover.bad == bad, (a, v)
                good = tuple((bad[k][1], bad[k + 1][0]) for k in range(ve))
                assert cover.good == good, (a, v)
            else:
                with pytest.raises(DomainError, match="overlap"):
                    enumerate_intervals(*checked)
            for k in range(ve + 1):
                window = enumerate_intervals(*checked, k_lo=k, k_hi=k)
                assert window.bad == (bad[k],), (a, v, k)


class TestCertify:
    def test_toy_certificate(self):
        result = certify(TOY_A, TOY_V, 150)
        assert result.status is CertifyStatus.CERTIFIED
        cert = result.certificate
        assert (cert.level, cert.vmin, cert.vmax) == (
            1,
            Fraction(149, 101),
            Fraction(151, 101),
        )
        assert witnesses_consistent(TOY_A, TOY_V, cert)

    def test_feasible_beta_gets_no_certificate(self):
        result = certify(TOY_A, TOY_V, 101)
        assert result.status is CertifyStatus.NO_CERTIFICATE

    def test_out_of_range_trivial(self):
        assert certify(TOY_A, TOY_V, -1).status is CertifyStatus.TRIVIALLY_INFEASIBLE
        assert certify(TOY_A, TOY_V, 304).status is CertifyStatus.TRIVIALLY_INFEASIBLE

    def test_preconditions(self):
        with pytest.raises(DomainError):
            certify((2, 4, 6), (1, 1, 1), 5)
        with pytest.raises(DomainError):
            certify(TOY_A, (0, 0, 0), 5)
        with pytest.raises(DomainError):
            certify(TOY_A, (1, -1, 1), 5)

    @pytest.mark.parametrize("beta", NOT_INTS)
    def test_rejects_non_integer_beta(self, beta):
        # unrefused, Fraction(1, 2) gets a certificate that verification rejects
        with pytest.raises(DomainError):
            certify((3, 5, 7), (1, 2, 2), beta)

    def test_calls_lp_extreme_eq_through_the_module(self, monkeypatch):
        # the benchmark's traced run times the call through this attribute
        calls = []

        def recording(a, v, beta):
            calls.append(beta)
            return lp_extreme_eq(a, v, beta)

        monkeypatch.setattr(branching, "lp_extreme_eq", recording)
        # one call per beta in range, certified or not, and none outside it
        a, v = (11, 13, 17), (1, 2, 3)
        statuses = set()
        for beta in range(-1, sum(a) + 2):
            calls.clear()
            result = certify(a, v, beta)
            # reading the witnesses makes no further call
            assert full(result) == full(certify_by_greedy(a, v, beta))
            assert calls == ([beta] if 0 <= beta <= sum(a) else []), beta
            statuses.add(result.status)
        assert len(statuses) == 3, statuses

    @pytest.mark.parametrize("decompose, n", PIPELINES, ids=PIPELINE_IDS)
    def test_pipeline_betas_match_greedy_referee(self, decompose, n):
        # status, level and witnesses as the referee's Fraction floors give
        # them; each claim verified, and rejected at the levels beside it
        certified = 0
        for seed in (1, 2):
            inst = generate_instance(n, seed)
            a, v = inst.a, decompose(inst).v
            rng = SplitMix64(seed)
            betas = [0, sum(inst.a)] + [rng.randint(0, sum(inst.a)) for _ in range(500)]
            for beta in betas:
                got = certify(a, v, beta)
                assert full(got) == full(certify_by_greedy(a, v, beta)), (seed, beta)
                if got.certificate is None:
                    continue
                level = got.certificate.level
                assert verify_certificate(a, v, Claim(beta, level)) is True
                for other in (level - 1, level + 1):
                    assert verify_certificate(a, v, Claim(beta, other)) is False
                certified += 1
        assert certified > 500

    def test_builds_no_fraction(self, monkeypatch, sorts):
        # for a new pair too: an equal but distinct copy of the pair misses
        # the memo, is sorted once, and its objects serve the rest of the run
        inst = generate_instance(10, 1)
        a, v = inst.a, decompose_frank_tardos(inst).v
        rng = SplitMix64(10)
        betas = [rng.randint(0, sum(inst.a)) for _ in range(500)]

        def decided(a, v, beta):
            result = certify(a, v, beta)
            return result.status, result.certificate and result.certificate.level

        want = [decided(a, v, beta) for beta in betas]
        assert any(status is CertifyStatus.CERTIFIED for status, _ in want)

        def no_fraction(*args):
            raise AssertionError("certify built a Fraction")

        twin = Weights(list(a)), Direction(list(v))
        sorts.clear()
        monkeypatch.setattr(branching, "Fraction", no_fraction)
        assert [decided(*twin, beta) for beta in betas] == want
        assert branching._prepared_last[0] is twin[0]
        assert sorts == ["min"]

    def test_result_is_a_named_tuple(self):
        # built positionally, it equals certify's result, and it survives
        # pickle with every status
        vmin, arg_min = lp_eq_greedy(TOY_A, TOY_V, 150, "min")
        vmax, arg_max = lp_eq_greedy(TOY_A, TOY_V, 150, "max")
        cert = Certificate(150, 1, vmin, vmax, arg_min, arg_max)
        built = [
            CertifyResult(CertifyStatus.CERTIFIED, 150, cert),
            CertifyResult(CertifyStatus.NO_CERTIFICATE, 101),
            CertifyResult(CertifyStatus.TRIVIALLY_INFEASIBLE, 304),
        ]
        for want in built:
            got = certify(TOY_A, TOY_V, want.beta)
            assert type(got) is CertifyResult and isinstance(got, tuple)
            assert got == want and hash(got) == hash(want)
            assert got._fields == ("status", "beta", "certificate")
            assert (got.status, got.beta, got.certificate) == tuple(want)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                twin = pickle.loads(pickle.dumps(got, protocol=protocol))
                assert type(twin) is CertifyResult
                assert full(twin) == full(got) == full(want), protocol

    def test_bisected_item_without_weight_in_v(self):
        # the min side bisects the v_i = 0 item: a remainder, yet vmin = 0 is
        # an integer, so a decision on the remainder alone would certify
        assert lp_extreme_eq((2, 3), (0, 1), 1) == ((0, 2), (1, 3))
        (vmin, _), (vmax, _) = _lp_vertices((2, 3), (0, 1), 1)
        assert vmin == 0 and vmax == Fraction(1, 3)
        result = certify((2, 3), (0, 1), 1)
        assert result == CertifyResult(CertifyStatus.NO_CERTIFICATE, 1)

    def test_integer_decision_exhaustive_small(self):
        # status, level and the whole certificate, against the Fraction
        # floors; every status, and the exact fill (A[j] = beta) and the
        # split item on each side
        certified = 0
        statuses, fills = set(), set()
        for a, v in exhaustive_small_instances(vmax=3):
            if math.gcd(*a) != 1:
                with pytest.raises(DomainError, match="coprime"):
                    certify(a, v, 1)
                continue
            for beta in range(-1, sum(a) + 2):
                got, want = certify(a, v, beta), certify_by_greedy(a, v, beta)
                assert got.status is want.status, (a, v, beta)
                if got.certificate is not None:
                    assert got.certificate.level == want.certificate.level
                    certified += 1
                assert full(got) == full(want), (a, v, beta)
                statuses.add(got.status)
                if 0 <= beta <= sum(a):
                    for sense in SENSES:
                        _, arg = lp_eq_greedy(a, v, beta, sense)
                        exact = all(x in (0, 1) for x in arg)
                        fills.add((sense, exact, got.status))
        assert certified > 200
        assert statuses == {
            CertifyStatus.CERTIFIED,
            CertifyStatus.NO_CERTIFICATE,
            CertifyStatus.TRIVIALLY_INFEASIBLE,
        }
        # an exact fill on either side puts an integer in [vmin, vmax]
        for sense in SENSES:
            assert (sense, True, CertifyStatus.NO_CERTIFICATE) in fills
            assert (sense, False, CertifyStatus.NO_CERTIFICATE) in fills
            assert (sense, False, CertifyStatus.CERTIFIED) in fills
            assert (sense, True, CertifyStatus.CERTIFIED) not in fills

    def test_soundness_exhaustive_small(self):
        rnd = random.Random(44)
        for _ in range(25):
            a, v = random_small_instance(rnd, nmax=6, wmax=40)
            import math

            if math.gcd(*a) != 1:
                continue
            for beta in range(-2, sum(a) + 3):
                result = certify(a, v, beta)
                if result.status is CertifyStatus.NO_CERTIFICATE:
                    continue
                assert not subset_feasible_naive(a, beta)

    def test_soundness_exhaustive_up_to_n20(self):
        import math

        from sscert.oracle import feasible

        rnd = random.Random(47)
        done = 0
        while done < 6:
            n = rnd.randint(17, 20)
            v = tuple(rnd.randint(1, 2) for _ in range(n))
            scale = rnd.randint(15, 40)
            r = tuple(rnd.randint(-1, 1) for _ in range(n))
            a = tuple(scale * vi + ri for vi, ri in zip(v, r))
            if min(a) < 1 or math.gcd(*a) != 1:
                continue
            for beta in range(0, sum(a) + 1):
                if certify(a, v, beta).status is CertifyStatus.CERTIFIED:
                    assert not feasible(a, beta).feasible
            done += 1

    def test_soundness_on_sampled_pipeline_betas(self):
        from sscert.decompose import decompose_frank_tardos
        from sscert.model import generate_instance
        from sscert.oracle import feasible
        from sscert.rng import SplitMix64

        inst = generate_instance(10, 42)
        dec = decompose_frank_tardos(inst)
        rng = SplitMix64(77)
        for _ in range(200):
            beta = rng.randint(0, sum(inst.a))
            result = certify(inst.a, dec.v, beta)
            if result.status is CertifyStatus.CERTIFIED:
                assert not feasible(inst.a, beta).feasible



class TestWitnessContract:
    """A certificate that certify builds reads its witnesses only when asked."""

    CASES = [(TOY_A, TOY_V, 150), ((11, 13, 17), (1, 2, 3), 37), ((31, 37, 41), (1, 2, 2), 33)]

    @staticmethod
    def referee(a, v, beta):
        (vmin, arg_min), (vmax, arg_max) = (lp_eq_greedy(a, v, beta, s) for s in SENSES)
        return vmin, vmax, arg_min, arg_max

    def found(self, a, v, beta):
        result = certify(a, v, beta)
        assert result.status is CertifyStatus.CERTIFIED
        return result.certificate

    def test_equals_the_keyword_built_certificate(self):
        for a, v, beta in self.CASES:
            cert = self.found(a, v, beta)
            vmin, vmax, arg_min, arg_max = self.referee(a, v, beta)
            made = Certificate(
                beta=beta, level=math.floor(vmin),
                vmin=vmin, vmax=vmax, arg_min=arg_min, arg_max=arg_max,
            )
            assert cert == made and hash(cert) == hash(made)
            assert witnesses(cert) == witnesses(made) == self.referee(a, v, beta)
            # (beta, level) decides: other witnesses of that level compare equal
            middle = made.level + Fraction(1, 2)
            other = Certificate(beta, made.level, middle, middle, (), ())
            assert cert == other and hash(cert) == hash(other)
            assert witnesses_consistent(a, v, cert)
            assert witnesses_consistent(a, v, made)

    def test_witnesses_are_read_once_and_only_when_asked(self, monkeypatch):
        calls = []

        def recording(a, v, beta):
            calls.append(beta)
            return _lp_vertices(a, v, beta)

        monkeypatch.setattr(branching, "_lp_vertices", recording)
        cert = self.found(TOY_A, TOY_V, 150)
        assert type(cert) is Certificate
        assert (cert.beta, cert.level) == (150, 1) and calls == []
        twin = self.found(TOY_A, TOY_V, 150)
        assert cert == twin and hash(cert) == hash(twin) and calls == []
        assert cert.arg_max == self.referee(TOY_A, TOY_V, 150)[3]
        assert witnesses(cert) == self.referee(TOY_A, TOY_V, 150)
        assert calls == [150]

    def test_survives_copy_and_pickle(self):
        a, v, beta = self.CASES[1]
        want = self.referee(a, v, beta)
        made = Certificate(beta, math.floor(want[0]), *want)
        read = self.found(a, v, beta)
        witnesses(read)
        copies = [copy.copy, copy.deepcopy] + [
            lambda c, p=p: pickle.loads(pickle.dumps(c, protocol=p))
            for p in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        assert len(copies) == 8
        for duplicate in copies:
            # unread, read and keyword-built
            for cert in (self.found(a, v, beta), read, made):
                twin = duplicate(cert)
                assert type(twin) is Certificate
                assert twin == cert and hash(twin) == hash(cert)
                assert witnesses(twin) == want
                assert witnesses_consistent(a, v, twin)

    def test_has_no_instance_dict(self):
        # one slotted object, before and after its witnesses are read
        cert = self.found(TOY_A, TOY_V, 150)
        assert not hasattr(cert, "__dict__")
        assert witnesses(cert) == self.referee(TOY_A, TOY_V, 150)
        assert not hasattr(cert, "__dict__")

    def test_interleaved_pairs_keep_their_witnesses(self, monkeypatch):
        # a certificate reads its witnesses through the memo entry its
        # certify read, not the memo as it is when they are asked for, nor
        # as another call left it while this certify ran
        first = Weights(TOY_A), Direction(TOY_V)
        second = Weights((11, 13, 17)), Direction((1, 2, 3))
        cert = certify(*first, 150).certificate
        assert certify(*second, 37).status is CertifyStatus.CERTIFIED
        assert branching._prepared_last[0] is second[0]
        assert witnesses(cert) == self.referee(TOY_A, TOY_V, 150)
        assert witnesses_consistent(*first, cert) is True

        def interleaved(a, v, beta):
            ends = lp_extreme_eq(a, v, beta)
            lp_extreme_eq(*second, 37)
            return ends

        monkeypatch.setattr(branching, "lp_extreme_eq", interleaved)
        cert = certify(*first, 150).certificate
        assert branching._prepared_last[0] is second[0]
        assert witnesses(cert) == self.referee(TOY_A, TOY_V, 150)

    def test_is_frozen(self):
        cert = self.found(TOY_A, TOY_V, 150)
        for name, value in (("level", 2), ("vmin", Fraction(1)), ("arg_min", ())):
            with pytest.raises(FrozenInstanceError):
                setattr(cert, name, value)
        assert cert.level == 1 and witnesses(cert) == self.referee(TOY_A, TOY_V, 150)

    def test_keyword_constructor_still_checks_the_bounds(self):
        vmin, vmax, arg_min, arg_max = self.referee(TOY_A, TOY_V, 150)
        for level in (0, 2):
            with pytest.raises(DomainError, match="l < vmin <= vmax < l"):
                Certificate(150, level, vmin, vmax, arg_min, arg_max)
        with pytest.raises(DomainError):
            replace(self.found(TOY_A, TOY_V, 150), level=0)

    def test_claims_without_witnesses_are_not_consistent(self):
        # a plain Claim is what verify reads, and holds no witnesses
        assert witnesses_consistent(TOY_A, TOY_V, Claim(150, 1)) is False
        assert witnesses_consistent(TOY_A, TOY_V, SimpleNamespace(beta=150, level=1)) is False
        cert = self.found(TOY_A, TOY_V, 150)
        assert witnesses_consistent(TOY_A, TOY_V, cert) is True
        assert witnesses_consistent(TOY_A, TOY_V, replace(cert, beta=149)) is False


class CacheContract:
    """What a side's per-(a, v) memo must keep: every answer, refusal and bound.

    A subclass names the identity memo, its side's only per-pair cache,
    the answers it serves at each point of a pair and their referee. The
    certifier's memo, which ``_prepared`` rebinds, and the verifier's,
    which ``_ascending`` rebinds, keep the same contract.
    """

    A, V = (3, 5, 7), (1, 2, 2)

    def memo(self):
        """The (a, v, data) that the memo holds now."""
        return getattr(branching, self.memo_name)

    def test_validation_comes_before_the_cache(self, monkeypatch):
        # Fraction and float entries equal the checked ints, and their
        # tuples equal the checked typed tuples; a refused pair reaches
        # neither a sort nor the memo, since every sort reads a Weights and
        # a Direction. Whatever the calls, plain tuples, lists, refused
        # entries or lengths, the memo holds only a Weights and a Direction
        # of its length
        def checked_only(num, den, sense):
            assert type(num) is Direction and type(den) is Weights, (num, den)
            return _greedy_order(num, den, sense)

        monkeypatch.setattr(branching, "_greedy_order", checked_only)
        for point in self.points(self.A, self.V):
            self.answer(self.A, self.V, point)
        for convert, container in product((Fraction, float), (tuple, list)):
            a, v = container(map(convert, self.A)), container(map(convert, self.V))
            assert tuple(a) == Weights(self.A) and tuple(v) == Direction(self.V)
            for pair in ((a, self.V), (self.A, v), (self.A, self.V[:2]), (list(self.A), self.V + (1,))):
                self.assert_refused(*pair)
                assert self.memo()[:2] == (self.A, self.V)
                assert type(self.memo()[0]) is Weights
                assert type(self.memo()[1]) is Direction
        a, v = self.memo()[:2]
        assert type(a) is Weights and type(v) is Direction and len(a) == len(v)

    def test_lists_match_tuples(self):
        for point in self.points(self.A, self.V):
            got = self.answer(list(self.A), list(self.V), point)
            assert got == self.answer(self.A, self.V, point), point

    def test_interleaved_pairs(self):
        # one pair shares a, another v, so each key part must count; the
        # points span those of every pair and a little beyond
        pairs = [(self.A, self.V), (self.A, (2, 1, 0)), ((4, 5, 7), self.V)]
        for point in self.points((4, 5, 7), (2, 2, 2)):
            for a, v in pairs:
                assert self.answer(a, v, point) == self.referee(a, v, point), (a, v, point)

    def test_is_bounded(self):
        # the memo holds the last pair only: after 20 pairs of n = 2000 the
        # memory held is within test_memory_is_linear_in_n's bound for one
        n = 2000
        tracemalloc.start()
        try:
            for k in range(20):
                self.fill(tuple(range(k + 1, k + n + 1)), (1,) * n)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**21
        assert self.memo()[:2] == (tuple(range(20, n + 20)), (1,) * n)

    def test_checked_objects_skip_the_cache(self):
        # the objects the memo holds get every answer from the one entry,
        # which no call rebinds; an equal copy misses the memo, enters it
        # and gets the same answers
        a, v = Weights(self.A), Direction(self.V)
        points = self.points(self.A, self.V)
        want = [self.answer(self.A, self.V, point) for point in points]
        self.fill(a, v)
        entry = self.memo()
        assert entry[0] is a and entry[1] is v
        assert [self.answer(a, v, point) for point in points] == want
        assert self.memo() is entry
        twin = Weights(list(a)), Direction(list(v))
        self.fill(*twin)
        entry = self.memo()
        assert entry[0] is twin[0] and entry[1] is twin[1]
        assert [self.answer(*twin, point) for point in points] == want
        assert self.memo() is entry

    def test_memory_is_linear_in_n(self):
        n = 2000
        tracemalloc.start()
        try:
            self.fill(tuple(range(1, n + 1)), (1,) * n)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**21


class TestPreparedCache(CacheContract):
    """The (a, v) data that certify prepares once must not change any answer."""

    memo_name = "_prepared_last"

    @staticmethod
    def points(a, v):
        return range(-1, sum(a) + 2)

    @staticmethod
    def answer(a, v, beta):
        """certify with its witnesses, and both lp_extreme_eq ends and both
        vertices where the relaxation is not empty."""
        ends = None
        if 0 <= beta <= sum(a):
            ends = values(lp_extreme_eq(a, v, beta)), _lp_vertices(a, v, beta)
        return full(certify(a, v, beta)), ends

    @staticmethod
    def referee(a, v, beta):
        ends = None
        if 0 <= beta <= sum(a):
            vertices = tuple(lp_eq_greedy(a, v, beta, sense) for sense in SENSES)
            ends = tuple(value for value, _ in vertices), vertices
        return full(certify_by_greedy(a, v, beta)), ends

    @staticmethod
    def assert_refused(a, v):
        with pytest.raises(DomainError):
            certify(a, v, 6)
        with pytest.raises(DomainError):
            lp_extreme_eq(a, v, 6)
        with pytest.raises(DomainError):
            _lp_vertices(a, v, 6)

    @staticmethod
    def fill(a, v):
        # at n = 2000 the n + 1 partial vertices themselves would hold 62 MiB
        certify(a, v, len(a))

    def test_non_coprime_weights_stay_refused(self):
        lp_extreme_eq((2, 4, 6), (1, 1, 1), 5)
        for _ in range(2):
            with pytest.raises(DomainError, match="coprime"):
                certify((2, 4, 6), (1, 1, 1), 5)

    def test_verify_leaves_it_alone(self):
        # the verifier shares no data with the certifier
        a, v = Weights((11, 13, 17)), Direction((1, 2, 3))
        cert = certify(a, v, 37).certificate
        memo = branching._prepared_last
        assert verify_certificate(a, v, cert) is True
        assert branching._prepared_last is memo

    def test_two_lookups_per_certify(self, monkeypatch):
        # certify reads the memo for its gcd and range, and its one
        # lp_extreme_eq call reads it once more for both ends. Only a miss
        # calls _prepared: plain tuples are checked into new objects on
        # every call, each call's one miss, and the lp_extreme_eq call gets
        # the very objects certify checked, which the memo then holds. The
        # memo's own objects make no _prepared call at all
        lookups, solved = [], []

        def recording(a, v):
            entry = prepared(a, v)
            lookups.append(entry[:2])
            return entry

        def solving(a, v, beta):
            solved.append((a, v))
            return lp_extreme_eq(a, v, beta)

        prepared = branching._prepared
        monkeypatch.setattr(branching, "_prepared", recording)
        monkeypatch.setattr(branching, "lp_extreme_eq", solving)
        a, v = (31, 37, 41), (1, 2, 2)
        for _ in range(2):
            assert certify(a, v, 33).status is CertifyStatus.CERTIFIED
        assert len(lookups) == len(solved) == 2
        for (checked_a, checked_v), (got_a, got_v) in zip(lookups, solved):
            assert type(checked_a) is Weights and type(checked_v) is Direction
            assert got_a is checked_a and got_v is checked_v
        checked = Weights(a), Direction(v)
        for _ in range(3):
            assert certify(*checked, 33).status is CertifyStatus.CERTIFIED
        # the first call misses the memo, which held the last plain call's
        # objects; the next two make no _prepared call
        assert len(lookups) == 3
        assert lookups[2][0] is checked[0] and lookups[2][1] is checked[1]
        assert len(solved) == 5
        assert all(got[0] is checked[0] and got[1] is checked[1] for got in solved[2:])

    def test_one_sort_per_pair(self, sorts):
        # a new pair costs one sort, the max side being the min side's order
        # reversed, and a repeated pair none. The witness reader sorts each
        # side for itself and leaves both memos as they were
        a, v = Weights((31, 37, 41)), Direction((1, 2, 2))
        cert = certify(a, v, 33).certificate
        assert certify(a, v, 34).status is CertifyStatus.CERTIFIED and sorts == ["min"]
        memos = branching._prepared_last, branching._ascending_last
        assert (cert.vmin, cert.vmax) == tuple(lp_eq_greedy(a, v, 33, s)[0] for s in SENSES)
        _lp_vertices((3, 5, 7), (1, 2, 2), 6)
        assert sorts == ["min", "min", "max", "min", "max"]
        assert branching._prepared_last is memos[0] and branching._ascending_last is memos[1]


class TestAscendingCache(CacheContract):
    """The verifier's ascending order, kept once per (a, v), must not change any answer."""

    memo_name = "_ascending_last"

    @staticmethod
    def points(a, v):
        return range(-1, sum(v) + 2)

    @staticmethod
    def answer(a, v, level):
        """lp_extreme_ineq's good interval, or None where it refuses the level."""
        try:
            return good_interval(a, v, level)
        except DomainError:
            return None

    @staticmethod
    def referee(a, v, level):
        # an empty LP is None: max below level 0, min above ||v||_1
        ends = good_interval_by(lp_ineq_vertex, a, v, level)
        return None if None in ends else ends

    def assert_refused(self, a, v):
        with pytest.raises(DomainError):
            lp_extreme_ineq(a, v, 1)
        cert = certify(self.A, self.V, 11).certificate
        assert verify_certificate(self.A, self.V, cert) is True
        assert verify_certificate(a, v, cert) is False

    @staticmethod
    def fill(a, v):
        lp_extreme_ineq(a, v, 1)

    def test_one_sort_per_pair(self, sorts):
        # a verify reads the memo once, for both ends: it sorts a new pair
        # once and the memo's own objects not at all. Plain tuples are
        # checked into new objects on every call, so each verify sorts;
        # checked objects are sorted once, and the memo serves the repeats
        a, v = (31, 37, 41), (1, 2, 2)
        cert = certify(a, v, 33).certificate
        sorts.clear()
        assert verify_certificate(a, v, cert) is True
        assert verify_certificate(a, v, cert) is True
        assert sorts == ["min", "min"]
        checked = Weights(a), Direction(v)
        for _ in range(3):
            assert verify_certificate(*checked, cert) is True
        assert sorts == ["min", "min", "min"]

    def test_holds_the_norms_beside_the_order(self):
        # the memo entry: the checked a and v, then a and v listed in
        # ascending v_i/a_i order, as plain lists, and their prefix sums,
        # which end in ||v||_1 and ||a||_1
        a, v = Weights((31, 37, 41)), Direction((1, 2, 2))
        entry = _ascending(a, v)
        assert branching._ascending_last is entry
        checked_a, checked_v, V, A, a_ord, v_ord = entry
        assert checked_a is a and checked_v is v
        assert (V, A) == ([0, 1, 3, 5], [0, 31, 72, 109])
        assert (a_ord, v_ord) == ([31, 41, 37], [1, 2, 2])
        assert (V[-1], A[-1]) == (sum(v), sum(a))
        assert all(type(x) is list for x in (V, A, a_ord, v_ord))

    def test_certify_leaves_it_alone(self):
        # the certifier shares no data with the verifier
        memo = branching._ascending_last
        assert certify((19, 23, 29), (2, 1, 3), 63).status is CertifyStatus.CERTIFIED
        assert branching._ascending_last is memo


def answers(a, v, beta):
    """certify's status and level at beta, and verify's verdicts at that
    level and the two beside it."""
    result = certify(a, v, beta)
    if result.certificate is None:
        return result.status, None, None
    level = result.certificate.level
    verdicts = tuple(verify_certificate(a, v, Claim(beta, k)) for k in (level - 1, level, level + 1))
    return result.status, level, verdicts


class TestIdentityMemo:
    """The memos, each side's only per-pair cache, answer by identity, never by equality."""

    @staticmethod
    def pairs_and_betas():
        # the first two pairs share the object a, the last two the object
        # v_ft, so a memo must test both parts; v_ft is near-parallel to
        # a + v_ft too, so every pair certifies and verifies most betas
        inst = generate_instance(10, 1)
        v_ft, v_rows = decompose_frank_tardos(inst).v, decompose_lll_rows(inst).v
        shifted = Weights(ai + vi for ai, vi in zip(inst.a, v_ft))
        assert math.gcd(*shifted) == 1
        pairs = [(inst.a, v_rows), (inst.a, v_ft), (shifted, v_ft)]
        rng = SplitMix64(31)
        betas = []
        for a, _ in pairs:
            top = sum(a)
            betas.append([0, top, top + 1] + [rng.randint(0, top) for _ in range(60)])
        return pairs, betas

    @pytest.mark.parametrize(
        "decompose, n", [(decompose_frank_tardos, 10), (decompose_lll_rows, 20)],
        ids=["ft10", "rows20"],
    )
    def test_equal_distinct_copy_gets_the_same_answers(self, decompose, n):
        inst = generate_instance(n, 1)
        a, v = inst.a, decompose(inst).v
        twin = Weights(list(a)), Direction(list(v))
        assert twin == (a, v) and twin[0] is not a and twin[1] is not v
        rng = SplitMix64(n)
        betas = [-1, 0, sum(inst.a), sum(inst.a) + 1]
        betas += [rng.randint(0, sum(inst.a)) for _ in range(200)]
        statuses = set()
        for beta in betas:
            want = answers(a, v, beta)
            for pair in (twin, (a, twin[1]), (twin[0], v), (a, v)):
                assert answers(*pair, beta) == want, (pair is twin, beta)
            statuses.add(want[0])
        assert len(statuses) == 3, statuses

    @staticmethod
    def serial(pairs, betas):
        """Each pair's answers, one pair after the other, on plain tuples:
        every call checks them into new objects, which no memo holds."""
        return [
            [answers(tuple(a), tuple(v), beta) for beta in bs]
            for (a, v), bs in zip(pairs, betas)
        ]

    def test_alternating_pairs_get_the_serial_answers(self):
        pairs, betas = self.pairs_and_betas()
        serial = self.serial(pairs, betas)
        for answered in serial:
            certified = sum(status is CertifyStatus.CERTIFIED for status, _, _ in answered)
            assert certified > len(answered) // 2
        # each step keeps one part of the pair and changes the other
        for k in range(len(betas[0])):
            for p in (0, 1, 2, 1):
                assert answers(*pairs[p], betas[p][k]) == serial[p][k], (p, k)

    def test_threads_alternating_pairs_get_the_serial_answers(self):
        # more threads than two cores, each alternating the pairs that share
        # a, with the interpreter switching threads as often as it can
        pairs, betas = self.pairs_and_betas()
        pairs, betas = pairs[:2], betas[:2]
        serial = self.serial(pairs, betas)
        calls, workers = 2000, 4
        got = [[] for _ in range(workers)]
        start = threading.Barrier(workers)

        def run(t):
            start.wait()
            for k in range(calls):
                p = (k + t) % 2
                got[t].append((p, k, answers(*pairs[p], betas[p][k % len(betas[p])])))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(workers):
            assert len(got[t]) == calls
            for p, k, answer in got[t]:
                assert answer == serial[p][k % len(betas[p])], (t, p, k)


def toy_pairs():
    """Every toy (a, v): entries up to 6 for n <= 2, a up to 4 and v up to 3
    for n = 3, a up to 3 and v up to 2 for n = 4; v nonzero."""
    for n, a_max, v_max in ((1, 6, 6), (2, 6, 6), (3, 4, 3), (4, 3, 2)):
        for a in product(range(1, a_max + 1), repeat=n):
            for v in product(range(v_max + 1), repeat=n):
                if any(v):
                    yield a, v


def outcome(fn, *args):
    """fn's answer, or the message of the DomainError that refuses the call."""
    try:
        return fn(*args)
    except DomainError as exc:
        return "refused: " + str(exc)


class TestMemoFirst:
    """A memo hit skips the checks of a and v, and nothing else.

    Each entry point reads its side's memo first: on a hit only beta or
    the level is checked, on a miss a, v and then beta or the level. The
    answers through the memo must equal those of a fresh equal copy,
    which misses it, and the referees'.
    """

    @staticmethod
    def fresh(a, v):
        return Weights(list(a)), Direction(list(v))

    def test_hit_miss_and_referee_agree_on_toy_pairs(self):
        # every beta and level in range and one past each end; verify at the
        # certified level and the two beside it
        def certified(a, v, beta):
            return full(certify(a, v, beta))

        refused_gcd = "refused: weights not coprime"
        done = 0
        for a, v in toy_pairs():
            checked = Weights(a), Direction(v)
            coprime = math.gcd(*a) == 1
            betas, levels = range(-1, sum(a) + 2), range(-1, sum(v) + 2)
            lp_extreme_eq(*checked, 0)
            certify_hit = [outcome(certified, *checked, beta) for beta in betas]
            eq_hit = [outcome(lp_extreme_eq, *checked, beta) for beta in betas]
            assert all(x is y for x, y in zip(branching._prepared_last, checked))
            lp_extreme_ineq(*checked, 0)
            ineq_hit = [outcome(lp_extreme_ineq, *checked, level) for level in levels]
            assert all(x is y for x, y in zip(branching._ascending_last, checked))
            certify_miss = [outcome(certified, *self.fresh(a, v), beta) for beta in betas]
            eq_miss = [outcome(lp_extreme_eq, *self.fresh(a, v), beta) for beta in betas]
            ineq_miss = [outcome(lp_extreme_ineq, *self.fresh(a, v), lv) for lv in levels]
            assert certify_hit == certify_miss, (a, v)
            assert eq_hit == eq_miss, (a, v)
            assert ineq_hit == ineq_miss, (a, v)
            # certify_by_greedy's decision, on one greedy fill per end
            for beta, got, ends in zip(betas, certify_hit, eq_hit):
                if not 0 <= beta <= sum(a):
                    assert ends == f"refused: right-hand side {beta} outside [0, {sum(a)}]"
                    want = full(CertifyResult(CertifyStatus.TRIVIALLY_INFEASIBLE, beta))
                    assert got == (want if coprime else refused_gcd), (a, v, beta)
                    continue
                (vmin, arg_min), (vmax, arg_max) = (lp_eq_greedy(a, v, beta, s) for s in SENSES)
                assert values(ends) == (vmin, vmax), (a, v, beta)
                if not coprime:
                    assert got == refused_gcd, (a, v, beta)
                elif math.floor(vmax) < vmin:
                    result, found = got
                    assert result.status is CertifyStatus.CERTIFIED, (a, v, beta)
                    assert result.certificate.level == math.floor(vmin)
                    assert found == (vmin, vmax, arg_min, arg_max), (a, v, beta)
                else:
                    assert got == full(CertifyResult(CertifyStatus.NO_CERTIFICATE, beta))
            for level, got in zip(levels, ineq_hit):
                if 0 <= level < sum(v):
                    assert got == good_interval_by(greedy_fill_pair, a, v, level), (a, v, level)
                else:
                    assert got == "refused: level outside [0, ||v||_1)", (a, v, level)
            for beta, got in zip(betas, certify_hit):
                if got == refused_gcd or got[0].certificate is None:
                    continue
                level = got[0].certificate.level
                for k in (level - 1, level, level + 1):
                    claim = Claim(beta, k)
                    hit = verify_certificate(*checked, claim)
                    assert hit is verify_certificate(*self.fresh(a, v), claim) is (k == level)
            done += 1
        assert done == 12_276

    @pytest.mark.parametrize("bad", NOT_INTS + [-1, 304, None, "150"])
    def test_refusals_on_a_hit(self, bad):
        # a non-int or out-of-range beta or level is refused with the miss's
        # message, and leaves the memo as it was
        checked = Weights(TOY_A), Direction(TOY_V)
        for fn, memo_name in (
            (lp_extreme_eq, "_prepared_last"),
            (lp_extreme_ineq, "_ascending_last"),
            (certify, "_prepared_last"),
        ):
            fn(*checked, 1)
            memo = getattr(branching, memo_name)
            assert memo[0] is checked[0] and memo[1] is checked[1]
            hit = outcome(fn, *checked, bad)
            assert getattr(branching, memo_name) is memo
            miss = outcome(fn, *self.fresh(TOY_A, TOY_V), bad)
            if fn is certify and bad in (-1, 304):  # out of range: trivially infeasible
                assert hit == miss == CertifyResult(CertifyStatus.TRIVIALLY_INFEASIBLE, bad)
                continue
            assert hit == miss and hit.startswith("refused: "), (fn, hit, miss)
        assert verify_certificate(*checked, Claim(150, 1)) is True
        assert verify_certificate(*checked, SimpleNamespace(beta=150, level=bad)) is False
        assert verify_certificate(*checked, SimpleNamespace(beta=bad, level=1)) is False

    def test_only_checked_pairs_enter_a_memo(self):
        # the miss paths, the only code that rebinds a memo, check a and v
        # before they sort: a refused pair leaves the memo as it was, and any
        # other enters as a Weights and a Direction of its length, the
        # caller's own objects where they are checked already
        a, v = Weights(TOY_A), Direction(TOY_V)
        for build, memo_name in ((_prepared, "_prepared_last"), (_ascending, "_ascending_last")):
            entry = build(a, v)
            assert entry[0] is a and entry[1] is v and getattr(branching, memo_name) is entry
            refused = [
                (TOY_A, (1, 1)), (a, Direction((1, 1))), ((0, 101, 102), TOY_V),
                (TOY_A, (1, -1, 1)), ([100.0, 101, 102], TOY_V), (TOY_A, (0, 0, 0)),
            ]
            for pair in refused:
                with pytest.raises(DomainError):
                    build(*pair)
                assert getattr(branching, memo_name) is entry
            for pair in ((TOY_A, v), (a, TOY_V), (list(a), list(v))):
                entry = build(*pair)
                assert getattr(branching, memo_name) is entry
                assert type(entry[0]) is Weights and type(entry[1]) is Direction
                assert entry[:2] == (a, v)
                assert all(x is y for x, y in zip(entry[:2], pair) if type(x) is type(y))

    def test_the_memo_is_the_only_cache_on_each_side(self, sorts):
        # new plain tuples cost one sort per call, refused or not, and the
        # memo's own objects none; both get the referees' answers. Witnesses
        # are not read, as their reader sorts for itself
        a, v = (31, 37, 41), (1, 2, 2)
        betas, levels = range(-1, sum(a) + 2), range(-1, sum(v) + 2)

        def plain():
            return tuple(list(a)), tuple(list(v))

        def decided(a, v, beta):
            result = certify(a, v, beta)
            return result.status, result.certificate and result.certificate.level

        def eq(a, v, beta):
            return values(lp_extreme_eq(a, v, beta))

        want_certify = [
            (result.status, result.certificate and result.certificate.level)
            for result in (certify_by_greedy(a, v, beta) for beta in betas)
        ]
        assert {status for status, _ in want_certify} == set(CertifyStatus) - {
            CertifyStatus.TRIVIALLY_INFEASIBLE_GCD}
        want_eq = [
            tuple(lp_eq_greedy(a, v, beta, s)[0] for s in SENSES) if 0 <= beta <= sum(a)
            else f"refused: right-hand side {beta} outside [0, {sum(a)}]"
            for beta in betas
        ]
        want_ineq = [
            good_interval_by(greedy_fill_pair, a, v, level) if 0 <= level < sum(v)
            else "refused: level outside [0, ||v||_1)"
            for level in levels
        ]
        claims, want_verify = [], []
        for beta, (_, level) in zip(betas, want_certify):
            if level is not None:
                for k in (level - 1, level, level + 1):
                    claims.append(Claim(beta, k))
                    want_verify.append(k == level)
        sorts.clear()
        assert [decided(*plain(), beta) for beta in betas] == want_certify
        assert [outcome(eq, *plain(), beta) for beta in betas] == want_eq
        assert sorts == ["min"] * 2 * len(betas)
        own = branching._prepared_last[:2]
        sorts.clear()
        assert [decided(*own, beta) for beta in betas] == want_certify
        assert [outcome(eq, *own, beta) for beta in betas] == want_eq
        assert sorts == []
        assert [outcome(lp_extreme_ineq, *plain(), level) for level in levels] == want_ineq
        assert [verify_certificate(*plain(), claim) for claim in claims] == want_verify
        assert sorts == ["min"] * (len(levels) + len(claims))
        own = branching._ascending_last[:2]
        sorts.clear()
        assert [outcome(lp_extreme_ineq, *own, level) for level in levels] == want_ineq
        assert [verify_certificate(*own, claim) for claim in claims] == want_verify
        assert sorts == []


class TestCertificateBounds:
    """The certificate's integer bound check against the Fraction chain."""

    @staticmethod
    def builds(level, vmin, vmax):
        try:
            Certificate(beta=0, level=level, vmin=vmin, vmax=vmax, arg_min=(), arg_max=())
        except DomainError:
            return False
        return True

    def test_named_edges(self):
        F = Fraction
        cases = [
            (0, F(0), F(1, 2), False),  # vmin = level
            (0, F(1, 2), F(1), False),  # vmax = level + 1
            (0, F(2, 3), F(1, 3), False),  # vmin > vmax
            (0, F(1, 2), F(1, 2), True),
            (-2, F(-3, 2), F(-4, 3), True),  # negative level
            (-2, F(-5, 2), F(-3, 2), False),
            (1, F(1), F(2), False),  # integer endpoints
            (1, F(3, 2), F(2), False),
        ]
        for level, vmin, vmax, holds in cases:
            assert certificate_bounds_hold(level, vmin, vmax) is holds
            assert self.builds(level, vmin, vmax) is holds, (level, vmin, vmax)

    def test_grid_matches_the_fraction_chain(self):
        values = sorted({Fraction(p, q) for q in (1, 2, 3, 5) for p in range(-9, 10)})
        held = 0
        for level in range(-3, 3):
            for vmin, vmax in product(values, repeat=2):
                holds = certificate_bounds_hold(level, vmin, vmax)
                assert self.builds(level, vmin, vmax) is holds, (level, vmin, vmax)
                held += holds
        assert held > 100

    def test_other_numbers_are_refused(self):
        # certify and parse_certificate build an int level and Fraction
        # bounds; any other type is a DomainError, even where its values hold
        d = 1 << 1100  # denominators past the float range
        lo, hi = Fraction(d + 1, d), Fraction(d + 2, d)
        assert self.builds(1, lo, hi)
        cases = [(level, lo, hi) for level in (1.0, Fraction(1), True)] + [
            (0, 0.5, Fraction(3, 4)), (0, Fraction(1, 4), 0.5), (0, Fraction(1, 2), 1),
            (0.5, Fraction(1, 2), Fraction(3, 4)),
        ]
        for level, vmin, vmax in cases:
            with pytest.raises(DomainError, match="int level and Fraction bounds"):
                Certificate(beta=0, level=level, vmin=vmin, vmax=vmax, arg_min=(), arg_max=())


class TestVerify:
    def test_accepts_genuine_certificate(self):
        cert = certify(TOY_A, TOY_V, 150).certificate
        assert verify_certificate(TOY_A, TOY_V, cert)
        # the good interval behind the acceptance
        assert good_interval(TOY_A, TOY_V, 1) == (102, 201)

    def test_rejects_wrong_level(self):
        forged = Certificate(
            beta=150,
            level=0,
            vmin=Fraction(1, 2),
            vmax=Fraction(3, 4),
            arg_min=(),
            arg_max=(),
        )
        assert not verify_certificate(TOY_A, TOY_V, forged)

    def test_rejects_tampered_beta(self):
        cert = certify(TOY_A, TOY_V, 150).certificate
        # moved outside (max(a,1), min(a,2)) = (102, 201)
        for beta in (102, 201, 250):
            tampered = Certificate(
                beta=beta,
                level=cert.level,
                vmin=cert.vmin,
                vmax=cert.vmax,
                arg_min=cert.arg_min,
                arg_max=cert.arg_max,
            )
            assert not verify_certificate(TOY_A, TOY_V, tampered)

    def test_rejects_garbage_level(self):
        silly = Certificate(
            beta=150, level=7, vmin=Fraction(29, 4), vmax=Fraction(15, 2),
            arg_min=(), arg_max=(),
        )
        assert not verify_certificate(TOY_A, TOY_V, silly)

    def test_calls_lp_extreme_ineq_through_the_module(self, monkeypatch):
        # the benchmark's traced run times the call through this attribute
        calls = []

        def recording(a, v, level):
            calls.append(level)
            return lp_extreme_ineq(a, v, level)

        monkeypatch.setattr(branching, "lp_extreme_ineq", recording)
        cert = certify(TOY_A, TOY_V, 150).certificate
        # (max(a, 1), min(a, 2)) = (102, 201): one call decides either end
        for beta, accepted in ((150, True), (102, False), (201, False)):
            calls.clear()
            assert verify_certificate(TOY_A, TOY_V, replace(cert, beta=beta)) is accepted
            assert calls == [1], beta

    def test_builds_no_fraction(self, monkeypatch, sorts):
        # the decision is integer cross-multiplication, for a new pair too
        def no_fraction(*args):
            raise AssertionError("verify built a Fraction")

        a, v = Weights((31, 37, 41)), Direction((1, 2, 2))
        cert = certify(a, v, 33).certificate
        toy = certify(TOY_A, TOY_V, 150).certificate
        moved = replace(cert, beta=cert.beta + 40)  # the constructor reads Fraction
        assert verify_certificate(a, v, cert) is True
        # an equal but distinct copy misses the memo and is sorted; so is
        # each pair after a call on the other
        twin = Weights(list(a)), Direction(list(v))
        sorts.clear()
        monkeypatch.setattr(branching, "Fraction", no_fraction)
        assert verify_certificate(*twin, cert) is True
        assert branching._ascending_last[0] is twin[0]
        assert verify_certificate(TOY_A, TOY_V, toy) is True
        assert verify_certificate(*twin, moved) is False
        assert sorts == ["min"] * 3

    @pytest.mark.parametrize(
        "decompose, n",
        [
            (decompose_frank_tardos, 10),
            (decompose_frank_tardos, 14),
            (decompose_lll_rows, 20),
        ],
        ids=["ft10", "ft14", "rows20"],
    )
    def test_pipeline_certificates_and_their_neighbours(self, decompose, n):
        # accepted as made; rejected at the levels beside it and at the
        # integers next to its interval (max(a, l), min(a, l + 1)), taken
        # from the Fraction greedy referee
        inst = generate_instance(n, 1)
        a, v = inst.a, decompose(inst).v
        rng = SplitMix64(1)
        checked = 0
        while checked < 200:
            result = certify(a, v, rng.randint(0, sum(inst.a)))
            if result.status is not CertifyStatus.CERTIFIED:
                continue
            cert = result.certificate
            level = cert.level
            assert verify_certificate(a, v, cert) is True, cert.beta
            for other in (level - 1, level + 1):
                forged = replace(
                    cert, level=other,
                    vmin=other + Fraction(1, 3), vmax=other + Fraction(2, 3),
                )
                assert verify_certificate(a, v, forged) is False, (cert.beta, other)
            hi, lo = good_interval_by(lp_ineq_greedy, a, v, level)
            assert good_interval(a, v, level) == (hi, lo)
            assert hi < cert.beta < lo
            for beta in (math.floor(hi), math.ceil(lo)):
                assert verify_certificate(a, v, replace(cert, beta=beta)) is False, beta
            checked += 1

    def test_malformed_input_is_rejected_not_raised(self):
        cert = certify(TOY_A, TOY_V, 150).certificate
        assert verify_certificate(TOY_A, TOY_V, cert) is True
        for a in [
            (100, 101.0, 102), (100, Fraction(101), 102), (100, "101", 102),
            (0, 101, 102), (-100, 101, 102), (),
        ]:
            assert verify_certificate(a, TOY_V, cert) is False, a
        for v in [(1, 1), (1, 1, 1, 1), (0, 0, 0), (1, -1, 1), (1, 1.0, 1)]:
            assert verify_certificate(TOY_A, v, cert) is False, v
        for level in (Fraction(1), 1.0):
            # the constructor refuses such a level; a copy that skips it is rejected
            with pytest.raises(DomainError):
                replace(cert, level=level)
            forged = replace(cert)
            object.__setattr__(forged, "level", level)
            assert verify_certificate(TOY_A, TOY_V, forged) is False
        for beta in (Fraction(150), 150.0, Fraction(301, 2)):
            assert verify_certificate(TOY_A, TOY_V, replace(cert, beta=beta)) is False

    def test_endpoints_are_rejected_exhaustive_small(self):
        # beta = max(a, l) or min(a, l + 1) is rejected; the chain decides the rest
        endpoints = 0
        for a, v in exhaustive_small_instances():
            for level in range(sum(v)):
                hi = lp_ineq_vertex(a, v, level, "max")
                lo = lp_ineq_vertex(a, v, level + 1, "min")
                for beta in range(math.floor(hi) - 1, math.ceil(lo) + 2):
                    forged = Certificate(
                        beta=beta, level=level,
                        vmin=level + Fraction(1, 3), vmax=level + Fraction(2, 3),
                        arg_min=(), arg_max=(),
                    )
                    accepted = verify_certificate(a, v, forged)
                    assert accepted is (hi < beta < lo), (a, v, level, beta)
                    endpoints += beta in (hi, lo)
        assert endpoints > 1000

    def test_agrees_with_certify_everywhere(self):
        rnd = random.Random(45)
        for _ in range(15):
            a, v = random_small_instance(rnd, nmax=5, wmax=30)
            if math.gcd(*a) != 1:
                continue
            for beta in range(0, sum(a) + 1):
                result = certify(a, v, beta)
                if result.status is CertifyStatus.CERTIFIED:
                    assert verify_certificate(a, v, result.certificate)
                    assert witnesses_consistent(a, v, result.certificate)

    def test_forged_certificates(self):
        # every (beta, level) pair, claimed with empty witnesses
        rnd = random.Random(55)
        checked = 0
        while checked < 30:
            a, v = random_small_instance(rnd, nmax=6, wmax=50)
            if math.gcd(*a) != 1:
                continue
            checked += 1
            for beta in range(-2, sum(a) + 3):
                accepted = []
                for level in range(-1, sum(v) + 1):
                    forged = Certificate(
                        beta=beta, level=level,
                        vmin=level + Fraction(1, 3), vmax=level + Fraction(2, 3),
                        arg_min=(), arg_max=(),
                    )
                    if verify_certificate(a, v, forged):
                        assert not subset_feasible_naive(a, beta), (a, v, beta, level)
                        accepted.append(level)
                certified = certify(a, v, beta).status is CertifyStatus.CERTIFIED
                assert bool(accepted) == certified, (a, v, beta, accepted)


class TestIntervals:
    def test_toy_cover(self):
        cover = enumerate_intervals(TOY_A, TOY_V)
        assert cover.bad == (
            (Fraction(0), Fraction(0)),
            (Fraction(100), Fraction(102)),
            (Fraction(201), Fraction(203)),
            (Fraction(303), Fraction(303)),
        )
        assert cover.good == (
            (Fraction(0), Fraction(100)),
            (Fraction(102), Fraction(201)),
            (Fraction(203), Fraction(303)),
        )
        lengths = [hi - lo for lo, hi in cover.good]
        assert lengths == [100, 99, 100]
        assert min(lengths) == TOY_SCALE - l1_norm(TOY_RESIDUAL) == 99
        assert count_integers_in_bad(cover) == 8

    def test_partition_endpoints(self):
        cover = enumerate_intervals(TOY_A, TOY_V)
        assert cover.bad[0][0] == 0
        assert cover.bad[-1][1] == sum(TOY_A)

    def test_cap(self):
        # a = v: bad intervals are the single levels [k, k]
        a = (2000001, 2000003)
        with pytest.raises(CapacityError):
            enumerate_intervals(a, a)
        # a level range one past the cap of 10^5 is refused before any LP
        with pytest.raises(CapacityError):
            enumerate_intervals(a, a, k_lo=5, k_hi=5 + 10**5 + 1)
        cover = enumerate_intervals(a, a, k_lo=5, k_hi=7)
        assert cover.bad == tuple((Fraction(k), Fraction(k)) for k in (5, 6, 7))
        # a = 1 v + 0: every good interval at least 1 - ||0||_1 wide
        assert min(hi - lo for lo, hi in cover.good) >= 1

    def test_refuses_a_window_that_is_not_int(self):
        for bad in (1.0, "1", Fraction(1), None):
            with pytest.raises(DomainError, match="k_lo must be an integer"):
                enumerate_intervals(TOY_A, TOY_V, k_lo=bad, k_hi=2)
            if bad is not None:  # None asks for the whole range
                with pytest.raises(DomainError, match="k_hi must be an integer"):
                    enumerate_intervals(TOY_A, TOY_V, k_lo=0, k_hi=bad)

    def test_window_is_keyword_only(self):
        # an old call (a, v, scale, residual) must not read scale as k_lo
        for extra in ((TOY_SCALE, TOY_RESIDUAL), (1,), (1, 2)):
            with pytest.raises(TypeError):
                enumerate_intervals(TOY_A, TOY_V, *extra)

    def test_partial_range(self):
        cover = enumerate_intervals(TOY_A, TOY_V, k_lo=1, k_hi=2)
        assert cover.bad == ((Fraction(100), Fraction(102)), (Fraction(201), Fraction(203)))
        assert cover.good == ((Fraction(102), Fraction(201)),)

    def test_interlacing_and_claim_bounds_random(self):
        rnd = random.Random(46)
        for _ in range(25):
            n = rnd.randint(2, 5)
            v = tuple(rnd.randint(1, 3) for _ in range(n))
            scale = rnd.randint(20, 60)
            residual = tuple(rnd.randint(-3, 3) for _ in range(n))
            a = tuple(scale * vi + ri for vi, ri in zip(v, residual))
            if min(a) < 1:
                continue
            res_l1 = sum(abs(r) for r in residual)
            cover = enumerate_intervals(a, v)
            # max(a,k) - min(a,k) <= ||r||_1 and gaps >= scale - ||r||_1
            for lo, hi in cover.bad:
                assert hi - lo <= res_l1
            for lo, hi in cover.good:
                assert hi - lo >= scale - res_l1
            chain = [x for lo_hi in cover.bad for x in lo_hi]
            assert chain == sorted(chain)
            assert len(cover.good) == sum(v)
            assert count_integers_in_bad(cover) <= (sum(v) + 1) * (res_l1 + 1)


class TestBadCount:
    # per n: weights 1..w and direction entries 0..m, every combination
    GRID = {1: (10, 4), 2: (8, 3), 3: (5, 2), 4: (3, 1), 5: (2, 1)}

    @staticmethod
    def agree(a, v):
        """Closed form against enumeration: count, overlap verdict, least good length."""
        try:
            cover = enumerate_intervals(a, v)
        except DomainError:
            with pytest.raises(DomainError, match="overlap"):
                _bad_count(a, v)
            return False
        count, least = _bad_count(a, v)
        assert count == count_integers_in_bad(cover), (a, v)
        # the least good length, which decides overlap, is the centre one
        hi, lo = good_interval(a, v, (sum(v) - 1) // 2)
        assert min(high - low for low, high in cover.good) == lo - hi == least, (a, v)
        return True

    def test_exhaustive_small_against_enumeration(self):
        verdicts = []
        for n, (w, m) in self.GRID.items():
            for a in product(range(1, w + 1), repeat=n):
                for v in product(range(m + 1), repeat=n):
                    if any(v):
                        verdicts.append(self.agree(a, v))
        assert verdicts.count(True) > 800 and verdicts.count(False) > 5000

    def test_near_multiples_against_enumeration(self):
        # a = scale * v + r keeps most levels disjoint, also for n = 4, 5
        rnd = random.Random(1212)
        disjoint = 0
        for _ in range(400):
            n = rnd.randint(3, 5)
            v = tuple(rnd.randint(0, 3) for _ in range(n - 1)) + (rnd.randint(1, 3),)
            scale = rnd.randint(5, 20)
            a = tuple(max(1, scale * vi + rnd.randint(-2, 2)) for vi in v)
            disjoint += self.agree(a, v)
        assert disjoint > 200


class TestCoverage:
    def test_toy_exact(self):
        stats = coverage_stats(TOY_A, TOY_V, TOY_SCALE, TOY_RESIDUAL, "exact")
        assert (stats.g, stats.b) == (296, 8)
        assert stats.bad_fraction == Fraction(8, 304)
        assert stats.bad_fraction_bound == Fraction(6, 101)
        assert stats.bad_fraction <= stats.bad_fraction_bound
        assert stats.two_pow_n_bound == Fraction(1, 8)
        assert stats.certified_share_upper == 1
        assert stats.corollary_1 == "holds"
        assert stats.min_good_length == stats.good_length_bound == 99
        assert stats.good_length_bound_holds

    def test_scale_must_be_positive(self):
        for scale in (Fraction(0), Fraction(-101)):
            with pytest.raises(DomainError, match="scale must be positive"):
                coverage_stats(TOY_A, TOY_V, scale, TOY_RESIDUAL, "exact")

    def test_residual_length_must_match(self):
        with pytest.raises(DomainError, match="residual length"):
            coverage_stats(TOY_A, TOY_V, TOY_SCALE, (Fraction(1),), "exact")

    def test_min_good_length_matches_enumeration(self):
        # the closed-form least good length against the minimum over every
        # level of a = scale v + r, and the same overlap refusal
        rnd = random.Random(808)
        disjoint = 0
        for _ in range(3000):
            n = rnd.randint(1, 5)
            v = tuple(rnd.randint(0, 3) for _ in range(n - 1)) + (rnd.randint(1, 3),)
            scale = rnd.randint(1, 12)
            a = tuple(max(1, scale * vi + rnd.randint(-3, 3)) for vi in v)
            residual = tuple(Fraction(ai - scale * vi) for ai, vi in zip(a, v))
            args = (a, v, Fraction(scale), residual, "exact")
            try:
                cover = enumerate_intervals(a, v)
            except DomainError as exc:
                with pytest.raises(DomainError) as refused:
                    coverage_stats(*args)
                assert str(refused.value) == str(exc)
                continue
            stats = coverage_stats(*args)
            least = min(hi - lo for lo, hi in cover.good)
            assert stats.min_good_length == least, (a, v)
            assert stats.good_length_bound == scale - l1_norm(residual) <= least
            assert stats.good_length_bound_holds is True
            disjoint += 1
        assert 1500 < disjoint < 3000

    def test_sampled_matches_exact_classification(self):
        stats = coverage_stats(
            TOY_A, TOY_V, TOY_SCALE, TOY_RESIDUAL, "sampled", sample_size=300, seed=5
        )
        assert stats.g + stats.b == 300
        assert stats.bad_fraction == Fraction(stats.b, 300)
        # the exact mode's claims are unset, as sample_size and seed are in exact mode
        assert (
            stats.certified_share_upper, stats.corollary_1, stats.min_good_length,
            stats.good_length_bound, stats.good_length_bound_holds,
        ) == (None,) * 5
        # resample by hand and compare
        from sscert.rng import SplitMix64

        rng = SplitMix64(5)
        bad = 0
        for _ in range(300):
            beta = rng.randint(0, sum(TOY_A))
            if certify(TOY_A, TOY_V, beta).status is not CertifyStatus.CERTIFIED:
                bad += 1
        assert stats.b == bad

    def test_sampled_needs_seed_and_size(self):
        with pytest.raises(DomainError):
            coverage_stats(TOY_A, TOY_V, TOY_SCALE, TOY_RESIDUAL, "sampled", sample_size=0, seed=1)
        with pytest.raises(DomainError):
            coverage_stats(TOY_A, TOY_V, TOY_SCALE, TOY_RESIDUAL, "sampled", sample_size=10)
        for workers in (0, -1):
            with pytest.raises(DomainError):
                coverage_stats(
                    TOY_A, TOY_V, TOY_SCALE, TOY_RESIDUAL, "sampled",
                    sample_size=200, seed=9, workers=workers,
                )

    def test_workers_agree(self):
        one = coverage_stats(
            TOY_A, TOY_V, TOY_SCALE, TOY_RESIDUAL, "sampled", sample_size=200, seed=9, workers=1
        )
        two = coverage_stats(
            TOY_A, TOY_V, TOY_SCALE, TOY_RESIDUAL, "sampled", sample_size=200, seed=9, workers=3
        )
        assert one == two

    @staticmethod
    def pool_modules(code):
        code += (
            "; print(sorted(m for m in sys.modules"
            " if m.startswith(('multiprocessing', 'concurrent'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_leaves_process_pool_unloaded(self):
        assert self.pool_modules("import sys, sscert.cli") == "[]\n"

    def test_sampled_count_starts_no_process_pool(self):
        # the draws are counted in this process, whatever workers says
        code = (
            "import sys; from fractions import Fraction as F"
            "; from sscert.branching import coverage_stats"
            "; coverage_stats((100, 101, 102), (1, 1, 1), F(101), (F(-1), F(0), F(1)),"
            " 'sampled', sample_size=50, seed=9, workers=2)"
        )
        assert self.pool_modules(code) == "[]\n"
