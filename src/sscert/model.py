"""Instance data model, density arithmetic, and instance generation.

Instances carry positive coprime integer weights. An instance is "low
density" for the branching pipeline when its density n / log2(max a_i)
is at most 1/(2n), which is decided by the exact integer comparison
max(a) >= 2^(2 n^2), never through the floating bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, GenerationError
from .intmath import log2_bracket
from .rng import SplitMix64, substream_seed

_RESAMPLE_CAP = 1000


def validate_weights(a: Sequence[int]) -> tuple[int, ...]:
    """The weights as a tuple; DomainError unless all are integers >= 1."""
    weights = tuple(a)
    if not weights or any(not isinstance(x, int) or x < 1 for x in weights):
        raise DomainError("weights must be integers >= 1")
    return weights


@dataclass(frozen=True, slots=True)
class Instance:
    """Subset sum weights: ``n`` positive coprime integers ``a``."""

    n: int
    a: tuple[int, ...]
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if self.n < 1:
            raise DomainError("instance dimension must be at least 1")
        if len(self.a) != self.n:
            raise DomainError(f"expected {self.n} weights, got {len(self.a)}")
        validate_weights(self.a)
        if math.gcd(*self.a) != 1:
            raise DomainError("weights not coprime")

    @property
    def l1_norm(self) -> int:
        return sum(self.a)

    @property
    def linf_norm(self) -> int:
        return max(self.a)

    def density(self) -> "DensityReport":
        return density(self.a)


@dataclass(frozen=True, slots=True)
class DensityReport:
    """Density n / log2(max a_i) with a rigorous rational bracket."""

    n: int
    log2_ainf: tuple[Fraction, Fraction]
    density_bracket: tuple[Fraction, Fraction]
    satisfies_half_over_n: bool

    def __post_init__(self):
        if self.log2_ainf[0] > self.log2_ainf[1]:
            raise DomainError("log2 bracket endpoints out of order")
        if self.density_bracket[0] > self.density_bracket[1]:
            raise DomainError("density bracket endpoints out of order")


def density(a: Sequence[int]) -> DensityReport:
    """Exact density report for a positive integer weight vector.

    The low-density flag is the exact comparison max(a) >= 2^(2 n^2);
    the brackets are reporting aids only.
    """
    weights = validate_weights(a)
    n = len(weights)
    biggest = max(weights)
    if biggest == 1:
        raise DomainError("density undefined for the all-ones vector")
    lo, hi = log2_bracket(biggest)
    return DensityReport(
        n=n,
        log2_ainf=(lo, hi),
        density_bracket=(Fraction(n) / hi, Fraction(n) / lo),
        satisfies_half_over_n=biggest >= 1 << (2 * n * n),
    )


def generate_instance(n: int, seed: int) -> Instance:
    """Deterministic low-density instance for the given seed.

    Each weight is uniform on [1, 2^(2 n^2 + 1)]; the whole vector is
    resampled (substream per attempt) until max(a) >= 2^(2 n^2) and
    gcd(a) = 1.
    """
    if n < 2:
        raise DomainError("generation requires n >= 2")
    bits = 2 * n * n + 1
    threshold = 1 << (2 * n * n)
    for attempt in range(_RESAMPLE_CAP):
        rng = SplitMix64(substream_seed(seed, attempt))
        weights = tuple(rng.randbits(bits) + 1 for _ in range(n))
        if max(weights) >= threshold and math.gcd(*weights) == 1:
            return Instance(n=n, a=weights, seed=seed)
    raise GenerationError(f"no acceptable vector after {_RESAMPLE_CAP} attempts")
