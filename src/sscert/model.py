"""Instance data model and instance generation.

Instances carry positive coprime integer weights. An instance is "low
density" for the branching pipeline when its density n / log2(max a_i)
is at most 1/(2n), which is decided by the exact integer comparison
max(a) >= 2^(2 n^2) (``Instance.low_density``).

A checked weight vector is a ``Weights`` and a checked direction a
``Direction``: each is a tuple built only through its check, so a
function that receives one only tests its type. Slicing or adding them
gives plain tuples, and pickle and copy rebuild them through the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .errors import DomainError
from .rng import SplitMix64, substream_seed

_RESAMPLE_CAP = 1000


class Weights(tuple):
    """Weights that passed the check: a nonempty tuple of integers >= 1."""

    __slots__ = ()

    def __new__(cls, a):
        if type(a) is cls:
            return a
        weights = tuple.__new__(cls, a)
        # the type test runs first, so min() never compares mixed types
        if not weights or not all(map(isinstance, weights, repeat(int))) or min(weights) < 1:
            raise DomainError("weights must be integers >= 1")
        return weights

    def __reduce__(self):
        # pickle protocols 0 and 1 would rebuild the tuple without __new__
        return Weights, (tuple(self),)


class Direction(tuple):
    """A direction that passed the check: integers >= 0, not all 0.

    Its length is checked against the weights by ``validate_direction``.
    """

    __slots__ = ()

    def __new__(cls, v):
        if type(v) is cls:
            return v
        v = tuple.__new__(cls, v)
        # the type test runs first, so min() never compares mixed types; an
        # empty v skips min() and is all zero
        if not all(map(isinstance, v, repeat(int))) or (v and min(v) < 0):
            bad = next(i for i, x in enumerate(v) if not isinstance(x, int) or x < 0)
            raise DomainError("direction must be a nonnegative integer vector", "v", bad)
        if not any(v):
            raise DomainError("direction must be nonzero", "v")
        return v

    def __reduce__(self):
        # pickle protocols 0 and 1 would rebuild the tuple without __new__
        return Direction, (tuple(self),)


def validate_weights(a: Sequence[int]) -> Weights:
    """The weights as Weights; DomainError unless all are integers >= 1."""
    return a if type(a) is Weights else Weights(a)


def validate_direction(v: Sequence[int], n: int) -> Direction:
    """The direction as a Direction; DomainError unless n integers >= 0, not all 0."""
    if type(v) is not Direction:
        v = tuple(v)
        if len(v) == n:
            return Direction(v)
    elif len(v) == n:
        return v
    raise DomainError("direction length differs from weight length", "v")


@dataclass(frozen=True, slots=True)
class Instance:
    """Subset sum weights: positive coprime integers ``a``, ``n`` of them."""

    a: Weights
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", validate_weights(self.a))
        if math.gcd(*self.a) != 1:
            raise DomainError("weights not coprime")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def l1_norm(self) -> int:
        return sum(self.a)

    @property
    def linf_norm(self) -> int:
        return max(self.a)

    @property
    def low_density(self) -> bool:
        """Density n / log2(max a) at most 1/(2n): max(a) >= 2^(2 n^2), exactly."""
        return self.linf_norm >= 1 << (2 * self.n * self.n)


def generate_instance(n: int, seed: int) -> Instance:
    """Deterministic low-density instance for the given seed.

    Each weight is uniform on [1, 2^(2 n^2 + 1)]; the whole vector is
    resampled (substream per attempt) until max(a) >= 2^(2 n^2) and
    gcd(a) = 1.
    """
    if n < 2:
        raise DomainError("generation requires n >= 2")
    bits = 2 * n * n + 1
    for attempt in range(_RESAMPLE_CAP):
        rng = SplitMix64(substream_seed(seed, attempt))
        weights = tuple(rng.randbits(bits) + 1 for _ in range(n))
        if math.gcd(*weights) == 1:
            inst = Instance(a=weights, seed=seed)
            if inst.low_density:
                return inst
    raise DomainError(f"no acceptable vector after {_RESAMPLE_CAP} attempts")
