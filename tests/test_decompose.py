import dataclasses
import math
import random
from fractions import Fraction

import pytest

from sscert.decompose import (
    Decomposition,
    Method,
    decompose_frank_tardos,
    decompose_lll_rows,
    decompose_with_fallback,
    project_onto,
)
from sscert.errors import CapacityError, DomainError
from sscert.intmath import l1_norm, norm_sq
from sscert.lll import lll_reduce
from sscert.model import Direction, Instance, generate_instance


def remark_family(m):
    # a = (m^2, m^2 + 1) projected onto v = (m, m + 1)
    return (m * m, m * m + 1), (m, m + 1)


class TestProjectOnto:
    def test_parallel(self):
        lam, res = project_onto((2, 4), (1, 2))
        assert lam == 2
        assert res == (Fraction(0), Fraction(0))

    def test_remark_member(self):
        a, v = remark_family(100)
        lam, res = project_onto(a, v)
        assert lam == Fraction(2010101, 20201)
        assert res[0] / lam == Fraction(999900, 2010101)
        assert res[1] / lam == Fraction(-990000, 2010101)

    def test_orthogonality(self):
        rnd = random.Random(31)
        for _ in range(50):
            n = rnd.randint(1, 6)
            a = tuple(rnd.randint(-40, 40) for _ in range(n))
            v = tuple(rnd.randint(-9, 9) for _ in range(n))
            if all(x == 0 for x in v):
                continue
            lam, res = project_onto(a, v)
            assert sum(r * x for r, x in zip(res, v)) == 0
            assert all(Fraction(x) == lam * y + r for x, y, r in zip(a, v, res))

    def test_zero_direction(self):
        with pytest.raises(DomainError):
            project_onto((1, 2), (0, 0))


class TestFrankTardos:
    def test_pipeline_instance(self):
        inst = generate_instance(10, 42)
        dec = decompose_frank_tardos(inst)
        assert dec.method is Method.FRANK_TARDOS
        assert all(b.holds for b in dec.bounds)
        assert min(dec.v) >= 0 and max(dec.v) > 0
        # defining identity, coordinate by coordinate
        assert dec.reconstruct_a() == tuple(Fraction(x) for x in inst.a)
        # hypotheses for the interval machinery
        assert dec.scale >= 1
        assert l1_norm(dec.residual) / dec.scale < 1
        # exact bound values
        n = inst.n
        assert l1_norm(dec.v) <= 1 << (2 * n * n)
        assert l1_norm(dec.residual) / dec.scale <= Fraction(1, 1 << (n + 2))
        assert dec.scale >= 1 << (n + 2)

    @pytest.mark.parametrize("n", [13, 14, 16])
    def test_bounds_up_to_n16(self, n):
        dec = decompose_frank_tardos(generate_instance(n, 0))
        assert all(b.holds for b in dec.bounds)

    def test_density_gate(self):
        base = generate_instance(10, 7)
        capped = tuple(min(x, (1 << 200) - 1) for x in base.a)
        if math.gcd(*capped) != 1:
            capped = capped[:-1] + (capped[-1] + 1,)
        inst = Instance(a=capped)
        with pytest.raises(DomainError):
            decompose_frank_tardos(inst)

    def test_small_n_gate(self):
        inst = Instance(a=(1 << 300, (1 << 300) + 1))
        with pytest.raises(DomainError):
            decompose_frank_tardos(inst)


class TestLllRows:
    def test_near_multiple_toy(self):
        # a close to 2^12 * (1, 2, 3, 4), coprime by the +1 offsets
        scale0 = 1 << 12
        a = (scale0 + 1, 2 * scale0, 3 * scale0, 4 * scale0 + 1)
        inst = Instance(a=a)
        dec = decompose_lll_rows(inst)
        assert dec.method is Method.LLL_ROWS
        assert dec.reconstruct_a() == tuple(Fraction(x) for x in a)
        residual_dot_v = sum(r * x for r, x in zip(dec.residual, dec.v))
        assert residual_dot_v == 0
        by_name = {b.name: b for b in dec.bounds}
        assert by_name["residual_ratio"].holds

    def test_generated_instance_scale_bound(self):
        inst = generate_instance(12, 3)
        dec = decompose_lll_rows(inst)
        by_name = {b.name: b for b in dec.bounds}
        assert by_name["scale_lower"].holds
        assert by_name["direction_residual_norm"].holds
        assert l1_norm(dec.residual) / dec.scale < 1

    def test_density_gate(self):
        with pytest.raises(DomainError):
            decompose_lll_rows(Instance(a=(2, 3, 5)))


def mixed_sign_reduction(monkeypatch):
    """Make the last row of the reduction's inverse transform (1, -1, 1, ..., 1)."""

    def reduce(basis):
        d = basis.dim
        last = (1, -1) + (1,) * (d - 2)
        rows = tuple(tuple(int(i == j) for j in range(d)) for i in range(d - 1))
        # a transform pair that differs from the identity in its last row only
        u = (*rows, tuple(-x for x in last[:-1]) + (1,))
        return dataclasses.replace(lll_reduce(basis), U=u, U_inv=(*rows, last))

    monkeypatch.setattr("sscert.decompose.lll_reduce", reduce)


class TestFallback:
    def test_frank_tardos_passthrough(self):
        inst = generate_instance(10, 42)
        assert decompose_with_fallback(inst) == decompose_frank_tardos(inst)

    def test_mixed_sign_reduction_rejected(self, monkeypatch):
        # no fallback to frank_tardos, which would apply to this instance
        inst = generate_instance(10, 42)
        mixed_sign_reduction(monkeypatch)
        with pytest.raises(DomainError, match="mixed signs"):
            decompose_lll_rows(inst)
        with pytest.raises(DomainError, match="mixed signs"):
            decompose_with_fallback(inst, Method.LLL_ROWS)


class TestDimensionLimits:
    # refused before any lattice is built; each would reduce for minutes
    @pytest.fixture(autouse=True)
    def no_lattice(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a lattice was built")

        monkeypatch.setattr("sscert.decompose.dioph_approx", fail)
        monkeypatch.setattr("sscert.decompose.lll_reduce", fail)

    def test_frank_tardos_above_16(self):
        with pytest.raises(CapacityError):
            decompose_frank_tardos(generate_instance(17, 1))

    def test_lll_rows_above_32(self):
        with pytest.raises(CapacityError):
            decompose_lll_rows(generate_instance(33, 1))


class TestDecompositionInvariants:
    def test_mixed_sign_direction_rejected(self):
        with pytest.raises(DomainError):
            Decomposition(
                v=(1, -1),
                scale=Fraction(5),
                residual=(Fraction(1), Fraction(1)),
                provenance=None,
            )

    def test_residual_dominating_scale_rejected(self):
        with pytest.raises(DomainError):
            Decomposition(
                v=(1, 1),
                scale=Fraction(1),
                residual=(Fraction(1), Fraction(1)),
                provenance=None,
            )

    def test_zero_direction_rejected(self):
        with pytest.raises(DomainError):
            Decomposition(
                v=(0, 0),
                scale=Fraction(1),
                residual=(Fraction(0), Fraction(0)),
                provenance=None,
            )

    def test_direction_is_held_checked(self):
        dec = Decomposition(
            v=[1, 2],
            scale=Fraction(5),
            residual=(Fraction(0), Fraction(0)),
            provenance=None,
        )
        assert type(dec.v) is Direction and dec.v == (1, 2)
        assert dec.method is Method.LLL_ROWS  # derived from the provenance
        with pytest.raises(DomainError, match="length"):
            dataclasses.replace(dec, v=Direction((1, 2, 3)))


class TestParallelism:
    def test_remark_member_values(self):
        # ||r||^2 / scale^2 stays near 1/2 while sin^2(a, v) = ||r||^2 / ||a||^2 is tiny
        a, v = remark_family(100)
        lam, res = project_onto(a, v)
        ratio_sq = norm_sq(res) / lam**2
        sin_sq = norm_sq(res) / norm_sq(a)
        assert ratio_sq == Fraction(1979900010000, 2010101**2)
        assert sin_sq == Fraction(1979900010000, 20201**2 * 200020001)
        assert 0.48 < float(ratio_sq) < 0.50
        assert float(sin_sq) < 3e-5

    def test_parallel_and_perpendicular(self):
        assert project_onto((2, 4), (1, 2))[1] == (0, 0)
        # perpendicular: zero scale, the whole of a is residual
        assert project_onto((1, 0), (0, 1)) == (0, (1, 0))

    def test_remark_ratio_monotone_toward_half(self):
        ratios = []
        for m in (10, 100, 1000):
            a, v = remark_family(m)
            lam, res = project_onto(a, v)
            ratios.append((res[0] / lam, res[1] / lam))
        firsts = [r[0] for r in ratios]
        seconds = [r[1] for r in ratios]
        assert firsts[0] < firsts[1] < firsts[2] < Fraction(1, 2)
        assert Fraction(-1, 2) < seconds[2] < seconds[1] < seconds[0]
