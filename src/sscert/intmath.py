"""Exact dot products and norms of integer and rational vectors."""

from __future__ import annotations

from typing import Sequence


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


def l1_norm(v: Sequence):
    return sum(abs(x) for x in v)


def linf_norm(v: Sequence):
    return max(abs(x) for x in v)
