"""Integer LLL reduction with unimodular transform tracking.

The basis is fed to the reduction one precision level at a time
(gradual feeding: van Hoeij & Novocin, "Gradual sub-lattice
reduction", LATIN 2010; Novocin, Stehle & Villard, STOC 2011). For
shifts s from the top bit length down to 0 in steps of
FEED_STEP_BITS, every entry x is truncated to sign(x) * (|x| >> s),
a nonzero entry that would vanish kept as +-1 (for the diophantine
lattice this is its small corner entry); the truncated basis times
the transform accumulated so far is reduced, and its transform is
composed onto the accumulated one. Each level starts from a basis the
previous ones left almost reduced, so the expensive swaps happen on
small numbers.

Every truncated level (s > 0) goes to the float-guided kernel of
``_lll_fp`` first. It keeps the basis and the transforms exact and
takes each step from double Gram-Schmidt data only when its error
bound proves the step is the exact kernel's. A decision inside the
bound refuses the level, and the all-integer kernel of ``_lll_py``
takes it. A level whose truncated columns are dependent is refused by
both kernels and skipped. No Frank-Tardos level up to n = 16 has been
seen refused; every truncated ``lll_rows`` level measured at
n = 6-32 is refused at a Lovasz decision, 0.2-21 ms per decomposition
(README). Either kernel leaves the same basis and transform, so the
output does not depend on which one ran.

One exact kernel pass on the full basis times the accumulated
transform finishes, so the output is exactly LLL-reduced whatever the
levels did: size reduction and the Lovasz condition at 3/4 are
checked once, on the integer Gram data of that pass, and the result
must equal the input times U, with U . U^-1 the identity. U and U^-1
are the composed transforms, and the stats sum the swaps and size
reductions of every pass.

Column convention throughout: the lattice is the set of integer
combinations of the basis columns, and ``reduced = input . U``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import _lll_fp
from . import _lll_py as _kernel
from .errors import DomainError, InvariantViolation


def kernel_name() -> str:
    """Name of the reduction kernel ("python")."""
    return _kernel.KERNEL_NAME


FEED_STEP_BITS = 64


@dataclass(frozen=True, slots=True)
class Basis:
    """Linearly independent integer columns."""

    cols: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cols = tuple(tuple(col) for col in self.cols)
        object.__setattr__(self, "cols", cols)
        if any(type(x) is not int for col in cols for x in col):
            raise DomainError("basis entries must be integers")
        if not cols:
            raise DomainError("basis needs at least one column")
        m = len(cols[0])
        if any(len(col) != m for col in cols):
            raise DomainError("basis columns must have equal length")
        if len(cols) > m:
            raise DomainError("more columns than coordinates")

    @property
    def dim(self) -> int:
        return len(self.cols)


@dataclass(frozen=True, slots=True)
class ReductionStats:
    dim: int
    swaps: int
    size_reductions: int


@dataclass(frozen=True, slots=True)
class ReducedBasis:
    """LLL output: reduced columns, transform and its inverse."""

    basis: Basis
    U: tuple[tuple[int, ...], ...]
    U_inv: tuple[tuple[int, ...], ...]
    stats: ReductionStats

    def __post_init__(self):
        d = self.basis.dim
        # rows of U . U^-1, see _mul
        if _mul(self.U_inv, self.U) != [[int(i == j) for j in range(d)] for i in range(d)]:
            raise InvariantViolation("transform and inverse do not multiply to identity")


def _check_reduced(lam, dvec) -> None:
    """Size reduction and the Lovasz condition at 3/4 on the kernel's Gram data.

    mu_ij = lam[i][j] / dvec[j+1] and |b*_i|^2 = dvec[i+1] / dvec[i]
    turn |mu_ij| <= 1/2 and |b*_k|^2 >= (3/4 - mu_k,k-1^2) |b*_k-1|^2 into integers.
    """
    for row in lam:
        if any(2 * abs(x) > dvec[j + 1] for j, x in enumerate(row)):
            raise InvariantViolation("basis is not size-reduced")
    for k in range(1, len(lam)):
        if 4 * (dvec[k + 1] * dvec[k - 1] + lam[k][k - 1] ** 2) < 3 * dvec[k] ** 2:
            raise InvariantViolation("Lovasz condition fails")


def lll_reduce(basis: Basis) -> ReducedBasis:
    """LLL-reduce the basis columns, feeding them in one precision level at a time."""
    cols = basis.cols
    d = basis.dim
    u = [[1 if r == j else 0 for r in range(d)] for j in range(d)]
    uinv = [list(col) for col in u]
    swaps = reductions = 0
    top = _bits(cols)
    for shift in [*range(top - FEED_STEP_BITS, 0, -FEED_STEP_BITS), 0]:
        level = _mul(_truncate(cols, shift), u)
        guided = _lll_fp.lll_reduce_fp(level) if shift else None
        if guided is not None:
            _, lu, luinv, s, r = guided
        else:
            try:
                b, lu, luinv, lam, dvec, s, r = _kernel.lll_reduce_ints(level)
            except ValueError as exc:
                if shift == 0:
                    raise DomainError(str(exc)) from None
                continue  # the truncated columns are dependent: skip the level
        u, uinv = _mul(u, lu), _mul(uinv, luinv)
        swaps += s
        reductions += r
    if _mul(cols, u) != b:
        raise InvariantViolation("reduced basis is not input times U")
    _check_reduced(lam, dvec)
    return ReducedBasis(
        basis=Basis(cols=b),
        U=tuple(tuple(u[j][i] for j in range(d)) for i in range(d)),
        U_inv=tuple(tuple(row) for row in uinv),
        stats=ReductionStats(dim=d, swaps=swaps, size_reductions=reductions),
    )


def _bits(cols):
    return max(abs(x).bit_length() for col in cols for x in col)


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
