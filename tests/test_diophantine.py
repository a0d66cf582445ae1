import math
import random
from fractions import Fraction

import pytest

from oracles import gram_det
from sscert.diophantine import (
    ApproxResult,
    build_approx_lattice,
    choose_precision,
    corner_exponent,
    dioph_approx,
    exceeds_q_bound,
)
from sscert.errors import DomainError, InvariantViolation


def contract_holds(result, alpha):
    n = len(alpha)
    err = max(abs(result.q * a - v) for a, v in zip(alpha, result.v))
    assert err == result.err_inf
    assert err <= Fraction(1, result.precision)
    assert 1 <= result.q
    assert result.q**4 <= (1 << (n * (n + 1))) * result.precision ** (4 * n)


class TestLattice:
    def test_corner_n1(self):
        basis = build_approx_lattice((Fraction(1, 2),), 2)
        # corner is 2^-ceil(1*2/4) * 2^-2 = 1/8, so the lattice is scaled
        # by 8; the Gram determinant is (8^2 * 1/8)^2
        assert basis.cols == ((8, 0), (4, 1))
        assert gram_det(basis.cols) == 64

    def test_zero_alpha(self):
        basis = build_approx_lattice((Fraction(0), Fraction(0)), 1)
        scale = 1 << corner_exponent(2)
        assert basis.cols == ((scale, 0, 0), (0, scale, 0), (0, 0, 1))

    def test_gram_determinant_is_corner_squared(self):
        rnd = random.Random(21)
        for _ in range(10):
            n = rnd.randint(1, 4)
            alpha = tuple(
                Fraction(rnd.randint(-20, 20), rnd.randint(1, 20)) for _ in range(n)
            )
            precision = rnd.randint(1, 9)
            corner = Fraction(1, (1 << corner_exponent(n)) * precision ** (n + 1))
            rational = [
                *(tuple(int(t == i) for t in range(n + 1)) for i in range(n)),
                alpha + (corner,),
            ]
            scale = math.lcm(*(x.denominator for col in rational for x in col))
            basis = build_approx_lattice(alpha, precision)
            # the rational lattice times its lcm, with determinant scale^(n+1) * corner
            assert basis.cols == tuple(tuple(x * scale for x in col) for col in rational)
            assert gram_det(basis.cols) == (scale ** (n + 1) * corner) ** 2


class TestDiophApprox:
    def test_half_quarter_at_four(self):
        alpha = (Fraction(1, 2), Fraction(1, 4))
        result = dioph_approx(alpha, 4)
        contract_holds(result, alpha)
        # exhaustive search over q < 4 shows every smaller q misses 1/4
        for q in range(1, 4):
            err = max(abs(q * a - round(q * a)) for a in alpha)
            assert err > Fraction(1, 4)
        assert result.q >= 4
        assert (result.q, result.v) == (4, (2, 1))

    def test_integral_alpha_zero_error(self):
        alpha = (Fraction(3), Fraction(-2), Fraction(5))
        result = dioph_approx(alpha, 7)
        contract_holds(result, alpha)
        assert result.err_inf == 0

    def test_thirds(self):
        alpha = (Fraction(2, 3), Fraction(1, 3))
        result = dioph_approx(alpha, 3)
        contract_holds(result, alpha)

    def test_deterministic(self):
        alpha = (Fraction(5, 7), Fraction(2, 11))
        assert dioph_approx(alpha, 6) == dioph_approx(alpha, 6)

    def test_randomized_contract(self):
        rnd = random.Random(22)
        for _ in range(120):
            n = rnd.randint(1, 6)
            alpha = tuple(
                Fraction(rnd.randint(-1000, 1000), rnd.randint(1, 1000))
                for _ in range(n)
            )
            precision = rnd.randint(1, 64)
            contract_holds(dioph_approx(alpha, precision), alpha)

    def test_bad_precision(self):
        with pytest.raises(DomainError):
            dioph_approx((Fraction(1, 2),), 0)

    def test_result_invariants_enforced(self):
        with pytest.raises(InvariantViolation):
            ApproxResult(q=0, v=(1,), precision=2, err_inf=Fraction(0))
        with pytest.raises(InvariantViolation):
            ApproxResult(q=1, v=(1,), precision=2, err_inf=Fraction(2, 3))
        for precision in (0, -5):
            with pytest.raises(InvariantViolation, match="precision"):
                ApproxResult(q=1, v=(1,), precision=precision, err_inf=Fraction(0))

    def test_q_bound_decided_as_the_plain_comparison(self):
        # q around the fourth root of the bound, where the bit lengths of q^4
        # and of the bound overlap and the exact comparison has to decide
        for n in range(1, 7):
            for precision in range(1, 65):
                bound = (1 << (n * (n + 1))) * precision ** (4 * n)
                root = math.isqrt(math.isqrt(bound))
                for q in range(max(1, root - 1), root + 3):
                    assert exceeds_q_bound(q, n, precision) == (q**4 > bound)


class TestChoosePrecision:
    def test_n10(self):
        assert choose_precision(10) == 40960

    def test_n12(self):
        assert choose_precision(12) == 196608

    @staticmethod
    def window_checks(n):
        """The two bounds that choose_precision proves in its docstring, with
        exponents cleared to integers by raising both sides to the 4th."""
        p4n = choose_precision(n) ** (4 * n)
        # direction norm: n * 2^(n(n+1)/4) * N^n <= 2^(2 n^2)
        direction = n**4 * (1 << (n * (n + 1))) * p4n <= 1 << (8 * n * n)
        # scale: 2^(2 n^2 - n(n+1)/4) / N^n >= 2^(n+2)
        scale = 1 << (8 * n * n - n * (n + 1)) >= (1 << (4 * (n + 2))) * p4n
        return direction, scale

    def test_window_checks_hold_up_to_40(self):
        for n in range(9, 41):
            assert choose_precision(n) == n << (n + 2)
            assert self.window_checks(n) == (True, True), n

    def test_window_checks_start_where_the_docstring_says(self):
        # the direction bound from n = 8, the scale bound from n = 9
        got = {n: self.window_checks(n) for n in range(6, 12)}
        assert got == {
            6: (False, False), 7: (False, False), 8: (True, False),
            9: (True, True), 10: (True, True), 11: (True, True),
        }
