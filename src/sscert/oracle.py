"""Brute-force ground truth for desk-scale validation.

Feasibility decisions use meet-in-the-middle over subset sums (weights
are big integers, so value-indexed dynamic programming is not an
option). The module also reports the certified share of infeasible
right-hand sides, the figure of the paper's Corollary 1.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Sequence

from .branching import CertifyStatus, _bad_count, certify
from .errors import CapacityError, DomainError, InvariantViolation
from .model import validate_direction, validate_weights
from .rng import SplitMix64

_FEASIBLE_CAP = 32


@dataclass(frozen=True, slots=True)
class FeasibilityAnswer:
    beta: int
    feasible: bool
    witness: tuple[int, ...] | None

    def __post_init__(self):
        if self.feasible != (self.witness is not None):
            raise InvariantViolation("witness present iff feasible")


@dataclass(frozen=True, slots=True)
class InfeasibleCoverageReport:
    """Certified share among infeasible right-hand sides vs 1 - 1/2^n."""

    mode: str
    infeasible_count: int
    certified_infeasible_count: int
    fraction: Fraction
    bound: Fraction
    sample_size: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.certified_infeasible_count > self.infeasible_count:
            raise InvariantViolation("certified count exceeds infeasible count")


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
    a = validate_weights(a)
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


def count_feasible_sums(a: Sequence[int]) -> int:
    """Size of the subset-sum value set, holding only its two halves' sums.

    The shifts l + R of the right half's sorted sums R, one per left sum
    l, merge into the whole set in ascending order, so memory grows as
    2^(n/2), not 2^n.
    """
    a = validate_weights(a)
    right = sorted(_half_sums(a[len(a) // 2 :]))
    shifts = (map(left.__add__, right) for left in _half_sums(a[: len(a) // 2]))
    return sum(1 for _ in groupby(heapq.merge(*shifts)))


def infeasible_coverage_report(
    a: Sequence[int],
    v: Sequence[int],
    mode: str,
    sample_size: int | None = None,
    seed: int | None = None,
) -> InfeasibleCoverageReport:
    """Certified fraction of infeasible right-hand sides.

    Exact mode (n <= 20) counts the infeasible beta in {0, ..., ||a||_1}
    by count_feasible_sums, holding at most 2^10 sums per half, and the
    certified ones, all infeasible, as the integers in good intervals
    (DomainError when levels overlap).
    Sampled mode classifies drawn betas via certify and cross-checks
    uncertified ones with the oracle when n <= 32; beyond that
    uncertified draws count as infeasible, which can only lower the
    reported fraction. An empty infeasible set reports fraction 1
    (vacuous).
    """
    a = validate_weights(a)
    n = len(a)
    bound = 1 - Fraction(1, 1 << n)
    if mode == "exact":
        if n > 20:
            raise CapacityError("exact mode capped at n = 20")
        infeasible = sum(a) + 1 - count_feasible_sums(a)
        certified, fraction = 0, Fraction(1)
        if infeasible:  # every certified beta is infeasible
            if math.gcd(*a) != 1:
                raise DomainError("weights not coprime")
            certified = sum(a) + 1 - _bad_count(a, validate_direction(v, n))
            fraction = Fraction(certified, infeasible)
        return InfeasibleCoverageReport(
            mode=mode, infeasible_count=infeasible,
            certified_infeasible_count=certified, fraction=fraction, bound=bound,
        )
    if mode != "sampled":
        raise DomainError('mode must be "exact" or "sampled"')
    if not sample_size or sample_size < 1:
        raise DomainError("sampled mode needs sample_size >= 1")
    if seed is None:
        raise DomainError("sampled mode needs a seed")
    v = validate_direction(v, n)  # once, not in every certify call
    rng = SplitMix64(seed)
    total = sum(a)
    infeasible = 0
    certified = 0
    for _ in range(sample_size):
        beta = rng.randint(0, total)
        if certify(a, v, beta).status is CertifyStatus.CERTIFIED:
            certified += 1
            infeasible += 1
        elif n > _FEASIBLE_CAP or not feasible(a, beta).feasible:
            infeasible += 1
    fraction = Fraction(certified, infeasible) if infeasible else Fraction(1)
    return InfeasibleCoverageReport(
        mode=mode, infeasible_count=infeasible,
        certified_infeasible_count=certified, fraction=fraction, bound=bound,
        sample_size=sample_size, seed=seed,
    )
