"""Exact rational LLL reduction with unimodular transform tracking.

The reduction runs in the all-integer kernel of ``_lll_py`` on Python
ints, always at the Lovasz constant delta = 3/4. Rational bases are
scaled by a common denominator first, which leaves the reduction
decisions and the transform U unchanged.

The scaled basis is fed to the kernel one precision level at a time
(gradual feeding: van Hoeij & Novocin, "Gradual sub-lattice
reduction", LATIN 2010; Novocin, Stehle & Villard, STOC 2011). For
shifts s from the top bit length down to 0 in steps of
FEED_STEP_BITS, every entry x is truncated to sign(x) * (|x| >> s),
a nonzero entry that would vanish kept as +-1 (for the diophantine
lattice this is the corner max(c, 2^-k)); the truncated basis times
the transform accumulated so far is reduced, and its transform is
composed onto the accumulated one. A level whose truncated columns
are dependent is skipped. Each level starts from a basis the previous
ones left almost reduced, so the expensive swaps happen on small
numbers. One exact kernel pass on the full basis times the
accumulated transform finishes, so the output is exactly LLL-reduced
whatever the levels did; U and U^-1 are the composed transforms, and
the stats sum the swaps and size reductions of every pass.

Column convention throughout: the lattice is the set of integer
combinations of the basis columns, and ``reduced = input . U``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import _lll_py as _kernel
from .errors import DomainError, InvariantViolation, RankError


def kernel_name() -> str:
    """Name of the reduction kernel ("python")."""
    return _kernel.KERNEL_NAME


DEFAULT_DELTA = Fraction(3, 4)
FEED_STEP_BITS = 64


@dataclass(frozen=True, slots=True)
class Basis:
    """Linearly independent columns of exact rationals."""

    cols: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        cols = tuple(tuple(Fraction(x) for x in col) for col in self.cols)
        object.__setattr__(self, "cols", cols)
        if not cols:
            raise DomainError("basis needs at least one column")
        m = len(cols[0])
        if any(len(col) != m for col in cols):
            raise DomainError("basis columns must have equal length")
        if len(cols) > m:
            raise RankError("more columns than coordinates")

    @property
    def dim(self) -> int:
        return len(self.cols)


@dataclass(frozen=True, slots=True)
class GramSchmidt:
    """mu coefficients (mu[i][j] for j < i) and squared b*_i norms."""

    mu: tuple[tuple[Fraction, ...], ...]
    norms_sq: tuple[Fraction, ...]


@dataclass(frozen=True, slots=True)
class ReductionStats:
    dim: int
    swaps: int
    size_reductions: int


@dataclass(frozen=True, slots=True)
class ReducedBasis:
    """LLL output: reduced columns, transform, inverse, Gram data."""

    basis: Basis
    U: tuple[tuple[int, ...], ...]
    U_inv: tuple[tuple[int, ...], ...]
    gso: GramSchmidt
    stats: ReductionStats

    def __post_init__(self):
        d = self.basis.dim
        ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        prod = [
            [sum(self.U[i][t] * self.U_inv[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
        if prod != ident:
            raise InvariantViolation("transform and inverse do not multiply to identity")
        _check_reduced_conditions(self.gso)


def _check_reduced_conditions(gso: GramSchmidt) -> None:
    half = Fraction(1, 2)
    for row in gso.mu:
        for mu in row:
            if abs(mu) > half:
                raise InvariantViolation("basis is not size-reduced")
    norms = gso.norms_sq
    for i in range(1, len(norms)):
        mu = gso.mu[i][i - 1]
        if norms[i] < (DEFAULT_DELTA - mu * mu) * norms[i - 1]:
            raise InvariantViolation("Lovasz condition fails")


def _common_denominator(basis: Basis) -> int:
    return math.lcm(*(x.denominator for col in basis.cols for x in col))


def lll_reduce(basis: Basis) -> ReducedBasis:
    """LLL-reduce the basis columns, feeding them in one precision level at a time."""
    scale = _common_denominator(basis)
    int_cols = [
        [x.numerator * (scale // x.denominator) for x in col] for col in basis.cols
    ]
    d = basis.dim
    u = [[1 if r == j else 0 for r in range(d)] for j in range(d)]
    uinv = [list(col) for col in u]
    swaps = reductions = 0
    top = max(abs(x).bit_length() for col in int_cols for x in col)
    for shift in [*range(top - FEED_STEP_BITS, 0, -FEED_STEP_BITS), 0]:
        try:
            b, lu, luinv, lam, dvec, s, r = _kernel.lll_reduce_ints(
                _mul(_truncate(int_cols, shift), u), DEFAULT_DELTA
            )
        except ValueError as exc:
            if shift == 0:
                raise RankError(str(exc)) from None
            continue  # the truncated columns are dependent: skip the level
        u, uinv = _mul(u, lu), _mul(uinv, luinv)
        swaps += s
        reductions += r
    if _mul(int_cols, u) != b:
        raise InvariantViolation("reduced basis is not input times U")

    reduced = Basis(cols=tuple(tuple(Fraction(x, scale) for x in col) for col in b))
    u_rows = tuple(tuple(u[j][i] for j in range(d)) for i in range(d))
    uinv_rows = tuple(tuple(row) for row in uinv)
    scale_sq = scale * scale
    gso = GramSchmidt(
        mu=tuple(
            tuple(Fraction(lam[i][j], dvec[j + 1]) for j in range(i)) for i in range(d)
        ),
        norms_sq=tuple(Fraction(dvec[i + 1], dvec[i]) / scale_sq for i in range(d)),
    )
    return ReducedBasis(
        basis=reduced,
        U=u_rows,
        U_inv=uinv_rows,
        gso=gso,
        stats=ReductionStats(dim=d, swaps=swaps, size_reductions=reductions),
    )


def _truncate(cols, shift):
    """Entries as sign(x) * (|x| >> shift), a nonzero entry kept as +-1.

    At shift 0 this is a copy of the columns.
    """
    out = []
    for col in cols:
        truncated = []
        for x in col:
            y = (abs(x) >> shift) or (1 if x else 0)
            truncated.append(-y if x < 0 else y)
        out.append(truncated)
    return out


def _mul(a_cols, b_cols):
    """Columns of A.B, with A and B given as lists of columns.

    Rows of L.V are ``_mul(rows of V, rows of L)``, which composes the
    inverse transforms kept as lists of rows.
    """
    a_rows = list(zip(*a_cols))
    return [[sum(map(mul, row, col)) for row in a_rows] for col in b_cols]
