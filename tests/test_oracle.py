import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from oracles import (
    all_feasible_sums,
    count_feasible_sums,
    infeasible_coverage_brute,
    subset_feasible_naive,
)
from sscert.branching import enumerate_intervals, infeasible_coverage_report
from sscert.errors import CapacityError, DomainError
from sscert.oracle import feasible
from test_acceptance import check_good_intervals

TOY_A = (100, 101, 102)
TOY_V = (1, 1, 1)


class TestFeasible:
    def test_hand_cases(self):
        answer = feasible((2, 3, 4), 5)
        assert answer.feasible and answer.witness == (1, 1, 0)
        assert not feasible((2, 3, 4), 1).feasible
        assert not feasible(TOY_A, 150).feasible

    def test_out_of_range(self):
        assert not feasible((2, 3, 4), -1).feasible
        assert not feasible((2, 3, 4), 10).feasible

    def test_capacity(self):
        with pytest.raises(CapacityError):
            feasible((3,) * 33, 3)

    def test_against_naive_enumeration(self):
        rnd = random.Random(51)
        for _ in range(20):
            n = rnd.randint(1, 9)
            a = tuple(rnd.randint(1, 30) for _ in range(n))
            for beta in range(-1, sum(a) + 2):
                answer = feasible(a, beta)
                assert answer.feasible == subset_feasible_naive(a, beta)
                if answer.feasible:
                    assert sum(x * w for x, w in zip(answer.witness, a)) == beta


class TestAllFeasibleSums:
    def test_hand_cases(self):
        assert all_feasible_sums(TOY_A) == {0, 100, 101, 102, 201, 202, 203, 303}
        assert all_feasible_sums((1, 2, 4)) == set(range(8))
        assert all_feasible_sums((2, 3, 4)) == {0, 2, 3, 4, 5, 6, 7, 9}

    def test_capacity(self):
        with pytest.raises(ValueError):
            all_feasible_sums((1,) * 25)

    def test_consistent_with_feasible(self):
        rnd = random.Random(52)
        for _ in range(15):
            n = rnd.randint(1, 8)
            a = tuple(rnd.randint(1, 25) for _ in range(n))
            sums = all_feasible_sums(a)
            assert len(sums) <= 1 << n
            for beta in range(sum(a) + 1):
                assert (beta in sums) == feasible(a, beta).feasible

    def test_consistent_at_n17(self):
        a = tuple(random.Random(1).sample(range(1, 30), 17))
        sums = all_feasible_sums(a)
        for beta in range(sum(a) + 1):
            assert (beta in sums) == feasible(a, beta).feasible


class TestCountFeasibleSums:
    def test_matches_the_set(self):
        rnd = random.Random(55)
        for _ in range(200):
            n = rnd.randint(1, 10)
            # small weights repeat sums across the two halves
            a = tuple(rnd.randint(1, 12) for _ in range(n))
            assert count_feasible_sums(a) == len(all_feasible_sums(a)), a

    def test_holds_only_the_halves(self):
        rnd = random.Random(56)
        a = tuple(rnd.getrandbits(800) | 1 for _ in range(16))
        tracemalloc.start()
        try:
            count = count_feasible_sums(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2^16 distinct sums of 800 bits would take over 10 MB as a set
        assert count == 1 << 16
        assert peak < 1 << 20


class TestGoodIntervals:
    def test_toy_matches(self):
        ok, mismatches = check_good_intervals(TOY_A, TOY_V)
        assert ok and mismatches == ()

    def test_random_equivalence(self):
        rnd = random.Random(53)
        checked = 0
        while checked < 30:
            n = rnd.randint(2, 6)
            a = tuple(rnd.randint(1, 50) for _ in range(n))
            if math.gcd(*a) != 1:
                continue
            v = tuple(rnd.randint(0, 3) for _ in range(n))
            if max(v) == 0:
                continue
            ok, mismatches = check_good_intervals(a, v)
            assert ok, (a, v, mismatches)
            checked += 1

    def test_good_sets_avoid_feasible_sums(self):
        rnd = random.Random(54)
        from sscert.branching import CertifyStatus, certify

        for _ in range(10):
            n = rnd.randint(2, 5)
            a = tuple(rnd.randint(1, 40) for _ in range(n))
            if math.gcd(*a) != 1:
                continue
            v = tuple(rnd.randint(1, 3) for _ in range(n))
            sums = all_feasible_sums(a)
            for beta in range(sum(a) + 1):
                if certify(a, v, beta).status is CertifyStatus.CERTIFIED:
                    assert beta not in sums


class TestInfeasibleCoverage:
    def test_toy_exact_full_coverage(self):
        # all 8 subset sums are distinct, so the upper end is the share itself
        report = infeasible_coverage_report(TOY_A, TOY_V)
        assert (report.total, report.certified) == (304, 296)
        assert report.lower == Fraction(296, 304)
        assert report.upper == 1
        assert report.target == Fraction(7, 8)
        assert report.verdict == "holds"

    def test_overlapping_levels_are_refused(self):
        # levels 1 and 2 overlap; no beta is infeasible for (1, 2, 4), some for (1, 2, 5)
        for a in ((1, 2, 4), (1, 2, 5)):
            with pytest.raises(DomainError, match="overlap"):
                infeasible_coverage_report(a, (1, 1, 1))

    def test_weights_must_be_coprime(self):
        with pytest.raises(DomainError, match="coprime"):
            infeasible_coverage_report((200, 202, 204), TOY_V)

    def test_exact_matches_brute_force_loop(self):
        rnd = random.Random(1313)
        verdicts = {"holds": 0, "fails": 0, "undecided": 0}
        unbounded = 0
        for _ in range(300):
            n = rnd.randint(2, 6)
            v = tuple(rnd.randint(0, 2) for _ in range(n - 1)) + (rnd.randint(1, 2),)
            scale = rnd.randint(3, 12)
            a = tuple(max(1, scale * vi + rnd.randint(-2, 2)) for vi in v)
            if math.gcd(*a) != 1:
                continue
            try:
                enumerate_intervals(a, v, Fraction(1), (Fraction(0),) * n)
            except DomainError:
                with pytest.raises(DomainError, match="overlap"):
                    infeasible_coverage_report(a, v)
                continue
            infeasible, certified = infeasible_coverage_brute(a, v)
            report = infeasible_coverage_report(a, v)
            assert report.total == sum(a) + 1
            assert report.certified == certified, (a, v)
            assert (report.upper is None) == (report.total <= 1 << n)
            assert report.upper is None or report.upper <= 1, (a, v)
            unbounded += report.upper is None
            if infeasible:
                share = Fraction(certified, infeasible)
                assert report.lower <= share, (a, v)
                assert report.upper is None or share <= report.upper, (a, v)
                assert report.verdict != "holds" or share >= report.target, (a, v)
                assert report.verdict != "fails" or share < report.target, (a, v)
            else:  # no share to bracket: nothing is certified, and no end decides
                assert report.verdict == "undecided"
            verdicts[report.verdict] += 1
        assert sum(verdicts.values()) > 150
        assert min(verdicts.values()) > 0, verdicts
        assert unbounded > 0
