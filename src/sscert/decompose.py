"""Near-parallel direction computation: a = scale * v + residual.

Two routes produce the branching direction v:

* ``frank_tardos``: diophantine approximation of a / max(a) (the
  Frank-Tardos single-vector decomposition). Requires n >= 10 and
  max(a) >= 2^(2 n^2); the three guarantees (direction l1 norm at most
  2^(2 n^2), residual ratio at most 2^-(n+2), scale at least 2^(n+2))
  are checked exactly on every output.
* ``lll_rows``: reduce the columns of the matrix stacking a over the
  identity; v is the last row of the inverse transform, with scale and
  residual defined by orthogonal projection. A reduced direction with
  mixed signs, which branching cannot use, is a DomainError. Its three
  guarantees are computed by ``Decomposition.bounds`` but not enforced,
  and no command prints them.

``Decomposition.bounds`` computes a method's checks from v, scale and
residual, so a decomposition read from a document cannot claim them,
and ``Decomposition.method`` is read off the provenance, so it cannot
disagree with it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .diophantine import ApproxResult, choose_precision, dioph_approx
from .errors import CapacityError, DomainError, InvariantViolation
from .intmath import dot, l1_norm, norm_sq
from .lll import Basis, ReductionStats, lll_reduce
from .model import Direction, Instance, validate_direction

# beyond these dimensions the exact reduction runs for minutes
FRANK_TARDOS_MAX_N = 16
LLL_ROWS_MAX_N = 32


class Method(enum.Enum):
    FRANK_TARDOS = "frank_tardos"
    LLL_ROWS = "lll_rows"


@dataclass(frozen=True, slots=True)
class BoundCheck:
    """One guarantee of a decomposition and whether it holds, checked exactly."""

    name: str
    holds: bool


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Direction v >= 0, v != 0, exact scale and residual: a = scale * v + residual."""

    v: Direction
    scale: Fraction
    residual: tuple[Fraction, ...]
    provenance: Union[ApproxResult, ReductionStats]

    def __post_init__(self):
        object.__setattr__(self, "residual", tuple(self.residual))
        object.__setattr__(self, "v", validate_direction(self.v, len(self.residual)))
        if self.scale <= 0:
            raise DomainError("scale must be positive", "scale")
        # r = a - scale * v for an integer a: one common denominator keeps the sum linear
        for i, r in enumerate(self.residual):
            if self.scale.denominator % r.denominator:
                raise DomainError("residual denominators must divide the scale's", "residual", i)
        if l1_norm(self.residual) >= self.scale:
            raise DomainError("residual l1 norm must be below the scale", "residual")

    @property
    def method(self) -> Method:
        """Frank-Tardos for a diophantine approximation, lll_rows otherwise."""
        if isinstance(self.provenance, ApproxResult):
            return Method.FRANK_TARDOS
        return Method.LLL_ROWS

    @property
    def bounds(self) -> tuple[BoundCheck, ...]:
        """The method's three guarantees, recomputed from v, scale and residual."""
        if self.method is Method.FRANK_TARDOS:
            return _frank_tardos_bounds(self.v, self.scale, self.residual)
        return _reduction_bounds(self.reconstruct_a(), self.v, self.scale, self.residual)

    def reconstruct_a(self) -> tuple[Fraction, ...]:
        return tuple(self.scale * vi + ri for vi, ri in zip(self.v, self.residual))


def project_onto(a: Sequence, v: Sequence) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Orthogonal projection scale and residual: r = a - scale * v, r.v = 0."""
    if len(a) != len(v):
        raise DomainError("vector lengths differ")
    vv = dot(v, v)
    if vv == 0:
        raise DomainError("cannot project onto the zero vector")
    lam = Fraction(dot(a, v)) / Fraction(vv)
    residual = tuple(Fraction(ai) - lam * vi for ai, vi in zip(a, v))
    return lam, residual


def decompose_frank_tardos(inst: Instance) -> Decomposition:
    """Direction from diophantine approximation of a / max(a)."""
    n = inst.n
    if n < 10:
        raise DomainError("frank_tardos decomposition requires n >= 10")
    if n > FRANK_TARDOS_MAX_N:
        raise CapacityError(f"frank_tardos capped at n = {FRANK_TARDOS_MAX_N}")
    if not inst.low_density:
        raise DomainError(
            "instance density above 1/(2n): max weight below 2^(2 n^2)"
        )
    precision = choose_precision(n)
    ainf = inst.linf_norm
    alpha = tuple(Fraction(ai, ainf) for ai in inst.a)
    approx = dioph_approx(alpha, precision)
    if min(approx.v) < 0 or max(approx.v) == 0:
        raise InvariantViolation("approximant of a positive vector must be >= 0, != 0")
    scale = Fraction(ainf, approx.q)
    residual = tuple(Fraction(ai) - scale * vi for ai, vi in zip(inst.a, approx.v))
    dec = Decomposition(approx.v, scale, residual, approx)
    if not all(b.holds for b in dec.bounds):
        raise InvariantViolation("decomposition bound failed; kernel bug")
    return dec


def _frank_tardos_bounds(v, scale, residual):
    """The three Frank-Tardos guarantees; the residual ratio is cleared of 2^-(n+2)."""
    n = len(v)
    return (
        BoundCheck("direction_l1", l1_norm(v) <= 1 << (2 * n * n)),
        BoundCheck("residual_ratio", l1_norm(residual) * (1 << (n + 2)) <= scale),
        BoundCheck("scale_lower", scale >= 1 << (n + 2)),
    )


def decompose_lll_rows(inst: Instance) -> Decomposition:
    """Direction from reducing the columns of a stacked over the identity."""
    n = inst.n
    if n < 2:
        raise DomainError("reduction decomposition requires n >= 2")
    if n > LLL_ROWS_MAX_N:
        raise CapacityError(f"lll_rows capped at n = {LLL_ROWS_MAX_N}")
    if inst.linf_norm ** 2 < 1 << (n * (n + 2)):
        raise DomainError(
            "instance density above 1/(n/2 + 1): max weight too small"
        )
    cols = tuple(
        (aj,) + tuple(int(t == j) for t in range(n)) for j, aj in enumerate(inst.a)
    )
    reduced = lll_reduce(Basis(cols=cols))
    v = reduced.U_inv[n - 1]
    if sum(v) < 0:
        v = tuple(-x for x in v)
    if all(x == 0 for x in v):
        raise InvariantViolation("last row of a unimodular inverse is zero")
    if min(v) < 0:
        raise DomainError("reduced direction has mixed signs; branching needs v >= 0")
    scale, residual = project_onto(inst.a, v)
    return Decomposition(v, scale, residual, reduced.stats)


def _reduction_bounds(a, v, scale, residual):
    """The three reduction guarantees, exponents cleared to integers.

    With f = 2^(n/4) / ||a||^(1/n), comparisons against f are done
    after raising both sides to the 4n-th power, so that only
    ||a||^2 appears.
    """
    n = len(a)
    asq = norm_sq(a)
    vsq = norm_sq(v)
    rsq = norm_sq(residual)
    return (
        BoundCheck(
            "direction_residual_norm",
            (vsq * (1 + rsq)) ** (2 * n) <= (1 << (n * n)) * asq ** (2 * n - 2),
        ),
        BoundCheck("scale_lower", scale ** (4 * n) * (1 << (n * n)) >= asq * asq),
        BoundCheck(
            "residual_ratio",
            (rsq / scale**2) ** (2 * n) * (asq * asq) <= 1 << (4 * n + n * n),
        ),
    )


def decompose_with_fallback(
    inst: Instance, method: Method = Method.FRANK_TARDOS
) -> Decomposition:
    """Decomposition by ``method``, no fallback; renamed with the next benchmark change."""
    if method is Method.FRANK_TARDOS:
        return decompose_frank_tardos(inst)
    return decompose_lll_rows(inst)
