"""Brute-force ground truth for desk-scale validation.

Feasibility decisions use meet-in-the-middle over subset sums (weights
are big integers, so value-indexed dynamic programming is not an
option).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapacityError, InvariantViolation
from .model import Weights

_FEASIBLE_CAP = 32


@dataclass(frozen=True, slots=True)
class FeasibilityAnswer:
    beta: int
    feasible: bool
    witness: tuple[int, ...] | None

    def __post_init__(self):
        if self.feasible != (self.witness is not None):
            raise InvariantViolation("witness present iff feasible")


def _half_sums(weights: Sequence[int]) -> dict[int, int]:
    """Subset sum -> first achieving bitmask, in mask order."""
    table: dict[int, int] = {}
    sums = [0] * (1 << len(weights))
    for mask in range(1 << len(weights)):
        if mask:
            low = mask & -mask
            sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
        if sums[mask] not in table:
            table[sums[mask]] = mask
    return table


def feasible(a: Sequence[int], beta: int) -> FeasibilityAnswer:
    """Exact subset sum decision by meet-in-the-middle, n <= 32."""
    a = Weights(a)
    n = len(a)
    if n > _FEASIBLE_CAP:
        raise CapacityError(f"feasibility oracle capped at n = {_FEASIBLE_CAP}")
    if beta < 0 or beta > sum(a):
        return FeasibilityAnswer(beta=beta, feasible=False, witness=None)
    n_left = (n + 1) // 2
    left = _half_sums(a[:n_left])
    right = _half_sums(a[n_left:])
    for left_sum, left_mask in left.items():
        right_mask = right.get(beta - left_sum)
        if right_mask is not None:
            witness = tuple(
                (left_mask >> i) & 1 if i < n_left else (right_mask >> (i - n_left)) & 1
                for i in range(n)
            )
            if sum(ai * xi for ai, xi in zip(a, witness)) != beta:
                raise InvariantViolation("oracle witness failed its own check")
            return FeasibilityAnswer(beta=beta, feasible=True, witness=witness)
    return FeasibilityAnswer(beta=beta, feasible=False, witness=None)
