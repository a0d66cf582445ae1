import hashlib
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from oracles import (
    box_min_norm_sq,
    fed_reduce_exact,
    gram_det,
    gso,
    invert_matrix,
    is_reduced,
    svp_min_norm_sq,
)
from sscert import _lll_fp, _lll_py, documents, lll
from sscert.branching import coverage_stats
from sscert.decompose import decompose_frank_tardos, decompose_lll_rows
from sscert.diophantine import build_approx_lattice, choose_precision, corner_exponent
from sscert.errors import DomainError, InvariantViolation
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
        with pytest.raises(DomainError):
            lll_reduce(Basis([(1, 2), (2, 4)]))
        with pytest.raises(DomainError):
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


def mixed_size_bases():
    """16 mixed-size bases of 1 to 8 columns."""
    rnd = random.Random(15)
    return [mixed_size_basis(rnd, rnd.randint(1, 8)) for _ in range(16)]


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
    """Each level's kernel, with its swap and size-reduction counts.

    One ``(kernel, counts)`` entry per kernel call, kernel "float" or
    "exact"; counts is None when the float kernel refused the level or
    the exact kernel raised.
    """
    calls = []
    kernel, guided = lll._kernel, lll._lll_fp

    def recording(cols):
        try:
            result = kernel.lll_reduce_ints(cols)
        except ValueError:
            calls.append(("exact", None))
            raise
        calls.append(("exact", result[5:]))
        return result

    def recording_fp(cols):
        result = guided.lll_reduce_fp(cols)
        calls.append(("float", result and result[3:]))
        return result

    monkeypatch.setattr(
        lll, "_kernel",
        SimpleNamespace(KERNEL_NAME=kernel.KERNEL_NAME, lll_reduce_ints=recording),
    )
    monkeypatch.setattr(lll, "_lll_fp", SimpleNamespace(lll_reduce_fp=recording_fp))
    return calls


def assert_stats_sum_levels(fed, calls):
    done = [counts for _, counts in calls if counts is not None]
    assert fed.stats.swaps == sum(c[0] for c in done)
    assert fed.stats.size_reductions == sum(c[1] for c in done)


def assert_matches_referee(basis):
    """lll_reduce against the fed reduction with every level exact."""
    fed = lll_reduce(basis)
    _, b, u, uinv, swaps, reductions = fed_reduce_exact(basis.cols, _lll_py.lll_reduce_ints)
    assert fed.basis.cols == tuple(map(tuple, b))
    assert fed.U == tuple(map(tuple, u))
    assert fed.U_inv == tuple(map(tuple, uinv))
    assert fed.stats == lll.ReductionStats(dim=basis.dim, swaps=swaps, size_reductions=reductions)
    return fed


def frank_tardos_lattice(n, seed):
    a = generate_instance(n, seed).a
    return build_approx_lattice([Fraction(x, max(a)) for x in a], choose_precision(n))


class TestFeeding:
    def test_mixed_size_random_bases(self):
        for cols in mixed_size_bases():
            assert_fed_matches_plain(Basis(cols))

    def test_singular_levels_are_skipped(self, kernel_calls):
        # the columns agree once the low 101 bits are cut off: the float
        # kernel refuses those levels, and the exact kernel skips them
        cols = [[(1 << 300) + (1 << 100), 1], [1 << 300, 1]]
        fed = assert_fed_matches_plain(Basis(cols))
        assert kernel_calls[:2] == [("float", None), ("exact", None)]
        # the last level, which the float kernel refuses and the exact
        # kernel takes, then the exact pass
        assert [(k, bool(counts)) for k, counts in kernel_calls[-3:]] == [
            ("float", False), ("exact", True), ("exact", True)
        ]
        assert [abs(x) for col in fed.basis.cols for x in col] == [0, 1, 1 << 100, 0]
        assert_stats_sum_levels(fed, kernel_calls)

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_frank_tardos_lattice(self, n, kernel_calls):
        fed = assert_fed_matches_plain(frank_tardos_lattice(n, 5))
        # the corner kept as 1 leaves no level singular, the float kernel
        # takes every level it is given, and the levels leave the exact
        # pass (the last call) nothing to swap
        assert len(kernel_calls) > 2 and all(counts for _, counts in kernel_calls)
        assert ("float", (0, 0)) in kernel_calls
        kernel, (swaps, _) = kernel_calls[-1]
        assert kernel == "exact" and swaps == 0
        assert_stats_sum_levels(fed, kernel_calls)

    def test_frank_tardos_levels_are_never_refused(self, kernel_calls):
        # a refused level still ends right, in the exact kernel, but FT levels
        # run several times slower there, and nothing else would show it: a
        # CPython whose float sum computes other doubles (3.12+) must refuse
        # none, so each reduction calls the exact kernel once, in the shift-0 pass
        floats = 0
        for n in range(10, 17):
            kernel_calls.clear()
            lll_reduce(frank_tardos_lattice(n, 1))
            kernels = [kernel for kernel, _ in kernel_calls]
            assert kernels == ["float"] * (len(kernels) - 1) + ["exact"]
            floats += len(kernels) - 1
        assert floats > 20

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
        if decompose is decompose_lll_rows:
            # lll_rows claims no bounds; exact coverage judges its direction
            stats = coverage_stats(inst.a, first.v, first.scale, first.residual, "exact")
            assert stats.bad_fraction <= stats.bad_fraction_bound
            assert stats.corollary_1 == "holds" and stats.good_length_bound_holds
        else:
            assert len(first.bounds) == 3
            assert all(check.holds for check in first.bounds)
        assert min(first.v) >= 0
        text = documents.serialize_decomposition(first)
        assert documents.serialize_decomposition(decompose(inst)) == text


def identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def textbook_lll(cols, max_swaps):
    """LLL at 3/4 on exact rational Gram-Schmidt data, stopped after max_swaps swaps.

    Returns ``(b, u, uinv, swaps, reductions)`` shaped as the kernels' results.
    """
    d = len(cols)
    b, u, uinv = [list(c) for c in cols], identity(d), identity(d)
    swaps = reductions = 0
    k = 1
    while k < d and swaps < max_swaps:
        mu, norms = gso(b)
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                uinv[j] = [x + q * y for x, y in zip(uinv[j], uinv[k])]
                mu[k][: j + 1] = [x - q * y for x, y in zip(mu[k], mu[j][:j] + [Fraction(1)])]
                reductions += 1
        if norms[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            for vec in (b, u, uinv):
                vec[k - 1], vec[k] = vec[k], vec[k - 1]
            swaps += 1
            k = max(k - 1, 1)
        else:
            k += 1
    return b, u, uinv, swaps, reductions


def half_swaps(cols):
    return textbook_lll(cols, textbook_lll(cols, math.inf)[3] // 2)


def no_steps(cols):
    return [list(c) for c in cols], identity(len(cols)), identity(len(cols)), 0, 0


def doubling(cols):
    # U = diag(2, 1, ...) is not unimodular; no integer U^-1 exists
    u = identity(len(cols))
    u[0][0] = 2
    return [[2 * x for x in cols[0]]] + [list(c) for c in cols[1:]], u, identity(len(cols)), 0, 0


class TestFloatGuided:
    """The float kernel on the truncated levels takes the exact kernel's steps."""

    @pytest.mark.parametrize("n", range(10, 15))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_frank_tardos_matches_referee(self, n, seed):
        assert_matches_referee(frank_tardos_lattice(n, seed))

    @pytest.mark.parametrize("seed", [1, 5])
    def test_knapsack_n20_matches_referee(self, seed, kernel_calls):
        assert_matches_referee(knapsack_lattice(generate_instance(20, seed).a))
        # the float kernel refuses each truncated level, and the exact kernel
        # takes it
        floats = [i for i, (kernel, _) in enumerate(kernel_calls) if kernel == "float"]
        assert floats
        assert all(kernel_calls[i] == ("float", None) for i in floats)
        assert all(kernel_calls[i + 1][0] == "exact" for i in floats)

    def test_mixed_size_bases_match_referee(self, kernel_calls):
        for cols in mixed_size_bases():
            assert_matches_referee(Basis(cols))
        # some of their levels sit on a tie or inside the error bound: each
        # refused level goes to the exact kernel
        refused = [i for i, call in enumerate(kernel_calls) if call == ("float", None)]
        assert refused
        assert all(kernel_calls[i + 1][0] == "exact" for i in refused)

    def test_singular_level_matches_referee(self):
        assert_matches_referee(Basis([[(1 << 300) + (1 << 100), 1], [1 << 300, 1]]))

    @pytest.mark.parametrize(
        "cols",
        [frank_tardos_lattice(10, 1).cols, knapsack_lattice(generate_instance(20, 1).a).cols]
        + mixed_size_bases(),
        ids=["ft10", "rows20"] + [f"mixed{i}" for i in range(16)],
    )
    def test_kernel_steps_are_exact_or_refused(self, cols):
        # on every level, small ones included: the exact kernel's result, or None
        for level in fed_reduce_exact(cols, _lll_py.lll_reduce_ints)[0]:
            guided = _lll_fp.lll_reduce_fp(level)
            if guided is not None:
                b, u, uinv, _, _, swaps, reductions = _lll_py.lll_reduce_ints(level)
                assert guided == (b, u, uinv, swaps, reductions)

    def test_kernel_scales_entries_past_the_double_range(self):
        # the FT n=10 levels times 2^1100, past what float() can take: the
        # kernel takes every one
        levels = fed_reduce_exact(frank_tardos_lattice(10, 1).cols, _lll_py.lll_reduce_ints)[0]
        assert len(levels) == 7
        for level in levels:
            cols = [[x << 1100 for x in col] for col in level]
            b, u, uinv, _, _, swaps, reductions = _lll_py.lll_reduce_ints(cols)
            assert _lll_fp.lll_reduce_fp(cols) == (b, u, uinv, swaps, reductions)

    @pytest.mark.parametrize(
        "cols",
        [[[2, 0], [1, 1]], [[2, 0, 0, 0], [0, 1, 1, 1]]],
        ids=["mu_is_one_half", "lovasz_equality"],
    )
    def test_kernel_refuses_a_tie(self, cols):
        # |mu| = 1/2 exactly, and 4 c_1 = 3 c_0: no error bound can decide them
        assert _lll_fp.lll_reduce_fp(cols) is None
        _lll_py.lll_reduce_ints(cols)

    def test_kernel_refuses_a_zero_pivot(self):
        cols = [[1 << 70, 3], [1 << 71, 6]]
        assert _lll_fp.lll_reduce_fp(cols) is None
        with pytest.raises(ValueError):
            _lll_py.lll_reduce_ints(cols)


@pytest.mark.parametrize("wrong", [no_steps, half_swaps], ids=["no_steps", "half_swaps"])
def test_only_the_exact_pass_decides(wrong, monkeypatch, kernel_calls):
    # a float kernel that stops early leaves the work to the exact pass
    monkeypatch.setattr(lll, "_lll_fp", SimpleNamespace(lll_reduce_fp=wrong))
    last_pass_swaps = []
    for cols in mixed_size_bases()[:8]:
        kernel_calls.clear()
        fed = lll_reduce(Basis(cols))
        assert is_reduced(fed.basis.cols)
        assert gram_det(fed.basis.cols) == gram_det(cols)
        kernel, (swaps, _) = kernel_calls[-1]
        assert kernel == "exact"
        last_pass_swaps.append(swaps)
    assert any(last_pass_swaps)


def test_float_kernel_transform_must_be_unimodular(monkeypatch):
    monkeypatch.setattr(lll, "_lll_fp", SimpleNamespace(lll_reduce_fp=doubling))
    with pytest.raises(InvariantViolation, match="transform and inverse"):
        lll_reduce(frank_tardos_lattice(10, 1))


# SHA-256 of the decomposition documents at seed 1, recorded at commit
# 5d39c1d (lll_rows n=10 at 470cee8, whose levels then went to the float
# kernel; Frank-Tardos when its documents stopped storing q, the precision
# and err_inf, with kind, method, v, lambda and r byte-identical); a
# change to the reduction that moves one says so
PINNED_SHA256 = [
    (decompose_lll_rows, 10,
     "55ab1c2bff202395f14ac5c1ba93e65ea53b8117fe137d174f3a42b494ce14fc"),
    (decompose_frank_tardos, 10,
     "1b2b6f9db3dfdbd4c0964c492b31785fd3c3c4ebb06cd9ffd669fe7f56861e24"),
    (decompose_frank_tardos, 12,
     "2995a0325bb23832ff202dace7a0e1dc3586405587b3ee653279787a4be3d01d"),
    (decompose_lll_rows, 20,
     "16082cf0557666d36a795923eef746c4684b9a179b8e5274aca8dc59968a506b"),
]


@pytest.mark.parametrize(
    "decompose, n, digest", PINNED_SHA256, ids=["rows10", "ft10", "ft12", "rows20"]
)
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
