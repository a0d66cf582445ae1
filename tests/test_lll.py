import hashlib
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from oracles import (
    box_min_norm_sq,
    gram_det,
    invert_matrix,
    is_reduced,
    svp_min_norm_sq,
)
from sscert import _lll_py, documents, lll
from sscert.decompose import decompose_frank_tardos, decompose_lll_rows
from sscert.diophantine import build_approx_lattice, choose_precision, corner_exponent
from sscert.errors import DomainError, InvariantViolation, RankError
from sscert.lll import Basis, kernel_name, lll_reduce
from sscert.model import generate_instance


def random_int_basis(rnd, d, m=None, bound=50):
    m = m or d
    while True:
        cols = [[rnd.randint(-bound, bound) for _ in range(m)] for _ in range(d)]
        if gram_det(cols) != 0:
            return cols


class TestIsReduced:
    def test_identity_reduced(self):
        assert is_reduced([(1, 0), (0, 1)])

    def test_hand_example_fails_lovasz(self):
        # norms (2, 1/2): 1/2 < (3/4 - 1/4) * 2
        assert not is_reduced([(1, 1), (0, 1)])

    def test_outputs_are_reduced(self):
        rnd = random.Random(12)
        for _ in range(20):
            cols = random_int_basis(rnd, rnd.randint(2, 5))
            red = lll_reduce(Basis(cols))
            assert is_reduced(red.basis.cols)


class TestLllReduce:
    def test_identity_unchanged(self):
        red = lll_reduce(Basis([(1, 0), (0, 1)]))
        assert red.basis.cols == ((1, 0), (0, 1))
        assert red.U == ((1, 0), (0, 1))
        assert red.stats.swaps == 0

    def test_hand_example_spans_z2(self):
        red = lll_reduce(Basis([(1, 1), (0, 1)]))
        first_norm_sq = sum(x * x for x in red.basis.cols[0])
        assert first_norm_sq == 1
        # |det U| = 1 keeps the lattice equal to Z^2
        assert gram_det(red.basis.cols) == 1

    def test_two_dim_quality_against_box_oracle(self):
        cols = [(201, 0), (188, 1)]
        red = lll_reduce(Basis(cols))
        lam1_sq = box_min_norm_sq(cols, 300)
        assert lam1_sq == 170
        first = sum(x * x for x in red.basis.cols[0])
        assert first <= 2 * lam1_sq

    def test_invariants_randomized(self):
        rnd = random.Random(13)
        for _ in range(60):
            d = rnd.randint(2, 6)
            cols = random_int_basis(rnd, d, m=d + rnd.randint(0, 2), bound=40)
            red = lll_reduce(Basis(cols))
            # unimodularity: integral inverse, U Uinv = I (checked in
            # the constructor) and both agree with direct inversion
            assert tuple(invert_matrix(red.U)) == tuple(
                tuple(Fraction(x) for x in row) for row in red.U_inv
            )
            # lattice and determinant preservation
            assert gram_det(red.basis.cols) == gram_det(cols)
            # the kernel's verdict agrees with an independent Gram-Schmidt
            assert is_reduced(red.basis.cols)

    def test_first_column_quality_small_dims(self):
        rnd = random.Random(14)
        for _ in range(30):
            d = rnd.randint(2, 5)
            cols = random_int_basis(rnd, d, bound=50)
            red = lll_reduce(Basis(cols))
            first = sum(x * x for x in red.basis.cols[0])
            assert first <= (1 << (d - 1)) * svp_min_norm_sq(cols)

    def test_rational_basis(self):
        # a rational lattice is reduced as its multiple by the lcm of its
        # denominators; the rational basis itself is refused
        alpha, precision = (Fraction(1, 3), Fraction(-2, 7)), 5
        corner = Fraction(1, (1 << corner_exponent(2)) * precision**3)
        rational = [(1, 0, 0), (0, 1, 0), alpha + (corner,)]
        scale = math.lcm(*(x.denominator for col in rational for x in col))
        basis = build_approx_lattice(alpha, precision)
        assert basis.cols == tuple(tuple(x * scale for x in col) for col in rational)
        assert all(type(x) is int for col in basis.cols for x in col)
        with pytest.raises(DomainError):
            Basis(rational)
        red = lll_reduce(basis)
        assert is_reduced(red.basis.cols)
        # reduced = input . U, exactly
        for j in range(3):
            for t in range(3):
                acc = sum(basis.cols[i][t] * red.U[i][j] for i in range(3))
                assert acc == red.basis.cols[j][t]

    def test_rank_error(self):
        with pytest.raises(RankError):
            lll_reduce(Basis([(1, 2), (2, 4)]))
        with pytest.raises(RankError):
            Basis([(1, 0), (0, 1), (1, 1)])


def matmul(x, y):
    return [
        [sum(x[i][t] * y[t][j] for t in range(len(y))) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def transpose(x):
    return [list(row) for row in zip(*x)]


def mixed_size_basis(rnd, d):
    # every entry gets its own size, from 0 to 300 bits
    while True:
        cols = [
            [rnd.choice((-1, 1)) * rnd.getrandbits(rnd.randint(0, 300)) for _ in range(d)]
            for _ in range(d)
        ]
        if gram_det(cols) != 0:
            return cols


def knapsack_lattice(a):
    n = len(a)
    return Basis(
        [[a[j]] + [1 if t == j else 0 for t in range(n)] for j in range(n)]
    )


def assert_fed_matches_plain(basis):
    """Fed lll_reduce against one kernel pass on the unfed basis."""
    fed = lll_reduce(basis)
    b, u, uinv, _, _, _, _ = _lll_py.lll_reduce_ints(basis.cols)
    plain = Basis(cols=b)
    assert is_reduced(fed.basis.cols) and is_reduced(plain.cols)
    d = basis.dim
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    assert matmul(fed.U, fed.U_inv) == ident
    assert tuple(invert_matrix(fed.U)) == tuple(
        tuple(Fraction(x) for x in row) for row in fed.U_inv
    )
    fed_mat = transpose(fed.basis.cols)
    plain_mat = transpose(plain.cols)
    assert matmul(transpose(basis.cols), fed.U) == fed_mat
    # each basis is an integer combination of the other: one lattice
    assert matmul(plain_mat, matmul(uinv, fed.U)) == fed_mat
    assert matmul(fed_mat, matmul(fed.U_inv, transpose(u))) == plain_mat
    return fed


@pytest.fixture
def kernel_calls(monkeypatch):
    """Swap and size-reduction counts of each kernel call, None if it raised."""
    calls = []
    kernel = lll._kernel

    def recording(cols):
        try:
            result = kernel.lll_reduce_ints(cols)
        except ValueError:
            calls.append(None)
            raise
        calls.append(result[5:])
        return result

    monkeypatch.setattr(
        lll, "_kernel",
        SimpleNamespace(KERNEL_NAME=kernel.KERNEL_NAME, lll_reduce_ints=recording),
    )
    return calls


def assert_stats_sum_levels(fed, calls):
    done = [c for c in calls if c is not None]
    assert fed.stats.swaps == sum(c[0] for c in done)
    assert fed.stats.size_reductions == sum(c[1] for c in done)


class TestFeeding:
    def test_mixed_size_random_bases(self):
        rnd = random.Random(15)
        for _ in range(16):
            d = rnd.randint(1, 8)
            assert_fed_matches_plain(Basis(mixed_size_basis(rnd, d)))

    def test_singular_levels_are_skipped(self, kernel_calls):
        # the columns agree once the low 101 bits are cut off
        cols = [[(1 << 300) + (1 << 100), 1], [1 << 300, 1]]
        fed = assert_fed_matches_plain(Basis(cols))
        assert None in kernel_calls
        assert None not in kernel_calls[-2:]  # the last level, then the exact pass
        assert [abs(x) for col in fed.basis.cols for x in col] == [0, 1, 1 << 100, 0]
        assert_stats_sum_levels(fed, kernel_calls)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_frank_tardos_lattice(self, n, kernel_calls):
        a = generate_instance(n, 5).a
        alpha = [Fraction(x, max(a)) for x in a]
        fed = assert_fed_matches_plain(build_approx_lattice(alpha, choose_precision(n)))
        # the corner kept as 1 leaves no level singular, and the levels
        # leave the exact pass (the last call) nothing to swap
        assert len(kernel_calls) > 2 and None not in kernel_calls
        assert kernel_calls[-1][0] == 0
        assert_stats_sum_levels(fed, kernel_calls)

    def test_knapsack_lattice_n20(self):
        assert_fed_matches_plain(knapsack_lattice(generate_instance(20, 5).a))

    @pytest.mark.parametrize(
        "decompose, n",
        [(decompose_frank_tardos, n) for n in (10, 11, 12)]
        + [(decompose_lll_rows, 20)],
    )
    def test_decompositions_bounded_nonnegative_deterministic(self, decompose, n):
        inst = generate_instance(n, 1)
        first = decompose(inst)
        assert all(check.holds for check in first.bounds)
        assert min(first.v) >= 0
        text = documents.serialize_decomposition(first)
        assert documents.serialize_decomposition(decompose(inst)) == text


# SHA-256 of the decomposition documents at seed 1, recorded at commit
# 5d39c1d; a change to the reduction that moves one says so
PINNED_SHA256 = [
    (decompose_frank_tardos, 10,
     "fbf345d6dabc99cdbd20c53148aca711fc0adf517accaff8bccd3ac155d44aec"),
    (decompose_frank_tardos, 12,
     "fccf40bffc29673d694af1e680bde94d88851fde4b8499190e6f935d37ba355c"),
    (decompose_lll_rows, 20,
     "16082cf0557666d36a795923eef746c4684b9a179b8e5274aca8dc59968a506b"),
]


@pytest.mark.parametrize("decompose, n, digest", PINNED_SHA256, ids=["ft10", "ft12", "rows20"])
def test_directions_are_pinned(decompose, n, digest):
    text = documents.serialize_decomposition(decompose(generate_instance(n, 1)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# what a corrupted kernel result must break, and the message it raises
FAULTS = {
    "basis": "reduced basis is not input times U",
    "lam": "basis is not size-reduced",
    "dvec": "Lovasz condition fails",
    "uinv": "transform and inverse do not multiply to identity",
}


def faulty_kernel(part):
    """A kernel shaped like perfbench's tracing proxy, corrupting ``part`` of each result.

    Each corruption breaks exactly one post-condition: lam[1][0] = dvec[1]
    makes |mu_10| = 1, and multiplying dvec[1] by dvec[2] + 1 fails the
    Lovasz condition at k = 1 while size reduction still holds.
    """

    def corrupt(cols):
        b, u, uinv, lam, dvec, s, r = _lll_py.lll_reduce_ints(cols)
        if part == "basis":
            b[0][0] += 1
        elif part == "lam":
            lam[1][0] = dvec[1]
        elif part == "dvec":
            dvec[1] *= dvec[2] + 1
        else:
            uinv[0][0] += 1
        return b, u, uinv, lam, dvec, s, r

    return SimpleNamespace(KERNEL_NAME=_lll_py.KERNEL_NAME, lll_reduce_ints=corrupt)


@pytest.mark.parametrize("part", FAULTS)
def test_each_post_condition_fires(part, monkeypatch):
    monkeypatch.setattr(lll, "_kernel", faulty_kernel(part))
    for basis in (Basis(random_int_basis(random.Random(16), 4)), knapsack_lattice((3, 5, 7))):
        with pytest.raises(InvariantViolation, match=FAULTS[part]):
            lll_reduce(basis)


def test_kernel_name_reports_active_module():
    assert kernel_name() == "python"
