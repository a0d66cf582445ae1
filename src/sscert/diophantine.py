"""Simultaneous diophantine approximation through lattice reduction.

Given rationals alpha and a quality parameter N, find one denominator
q and an integer vector v with ||q*alpha - v||_inf <= 1/N and
q <= 2^(n(n+1)/4) * N^n. The standard construction reduces the
(n+1)-dimensional lattice spanned by the unit vectors and the column
(alpha, c) with a tiny corner entry c; the first reduced vector then
reads off q and v.

The ideal corner 2^(-n(n+1)/4) * N^-(n+1) is irrational when n(n+1)/4
is not an integer, so the exponent is rounded up. That only shrinks
the corner: the error guarantee tightens and the q bound keeps the
stated form (checked exactly on every result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, InvariantViolation
from .intmath import linf_norm
from .lll import Basis, lll_reduce


def corner_exponent(n: int) -> int:
    """ceil(n(n+1)/4), the power of two in the corner denominator."""
    return -((-n * (n + 1)) // 4)


@dataclass(frozen=True, slots=True)
class ApproxResult:
    """One-denominator approximation q, v of alpha at quality 1/precision."""

    q: int
    v: tuple[int, ...]
    precision: int
    err_inf: Fraction

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(self.v))
        n = len(self.v)
        if self.q < 1:
            raise InvariantViolation("denominator q must be positive")
        if self.precision < 1:
            raise InvariantViolation("precision N must be positive")
        if self.err_inf > Fraction(1, self.precision):
            raise InvariantViolation("approximation error exceeds 1/N")
        if exceeds_q_bound(self.q, n, self.precision):
            raise InvariantViolation("denominator exceeds the stated bound")


def exceeds_q_bound(q: int, n: int, precision: int) -> bool:
    """q^4 > 2^(n(n+1)) * N^(4n), the fourth power of q's bound.

    Compared as it stands: no document supplies n or N. A document's
    Frank-Tardos approximation is derived for 10 <= n <= 16 only, with
    N = choose_precision(n).
    """
    return q**4 > (1 << (n * (n + 1))) * precision ** (4 * n)


def build_approx_lattice(alpha: Sequence[Fraction], precision: int) -> Basis:
    """Unit columns plus the column (alpha, corner), corner as above.

    Every entry is multiplied by the least common denominator of all of
    them, which changes no reduction step.
    """
    if precision < 1:
        raise DomainError("precision must be a positive integer")
    alpha = tuple(Fraction(x) for x in alpha)
    n = len(alpha)
    if n < 1:
        raise DomainError("alpha must be nonempty")
    corner_den = (1 << corner_exponent(n)) * precision ** (n + 1)
    scale = math.lcm(corner_den, *(x.denominator for x in alpha))
    cols = [tuple(scale if t == i else 0 for t in range(n + 1)) for i in range(n)]
    cols.append(
        tuple(x.numerator * (scale // x.denominator) for x in alpha)
        + (scale // corner_den,)
    )
    return Basis(cols=tuple(cols))


def dioph_approx(alpha: Sequence[Fraction], precision: int) -> ApproxResult:
    """Compute (q, v) meeting both approximation guarantees, exactly."""
    alpha = tuple(Fraction(x) for x in alpha)
    n = len(alpha)
    lattice = build_approx_lattice(alpha, precision)
    reduced = lll_reduce(lattice)
    coeffs = [reduced.U[i][0] for i in range(n + 1)]
    q = coeffs[n]
    if q == 0:
        raise InvariantViolation("shortest reduced vector has zero denominator")
    if q < 0:
        q = -q
        coeffs = [-c for c in coeffs]
    v = tuple(-coeffs[i] for i in range(n))
    err = linf_norm([q * alpha[i] - v[i] for i in range(n)])
    return ApproxResult(q=q, v=v, precision=precision, err_inf=Fraction(err))


def choose_precision(n: int) -> int:
    """Quality parameter N = n * 2^(n+2), the window's integral low end.

    Verifies exactly (with exponents cleared to integers) that this N
    keeps the direction norm and scale bounds of the decomposition
    pipeline; the residual ratio n / N = 2^-(n+2) holds by construction.
    The window is nonempty only for n >= 10.
    """
    if n <= 9:
        raise DomainError("no valid quality parameter window below n = 10")
    precision = n << (n + 2)
    p4n = precision ** (4 * n)
    # direction norm: n * 2^(n(n+1)/4) * N^n <= 2^(2 n^2), raised to the 4th
    if n**4 * (1 << (n * (n + 1))) * p4n > 1 << (8 * n * n):
        raise InvariantViolation("direction norm bound fails at chosen N")
    # scale: 2^(2 n^2 - n(n+1)/4) / N^n >= 2^(n+2), raised to the 4th
    if 1 << (8 * n * n - n * (n + 1)) < (1 << (4 * (n + 2))) * p4n:
        raise InvariantViolation("scale lower bound fails at chosen N")
    return precision
