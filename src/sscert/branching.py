"""Infeasibility certificates by branching on one integral hyperplane.

A right-hand side beta is certified infeasible when the exact LP range
[vmin, vmax] of v.x over {x | a.x = beta, 0 <= x <= e} contains no
integer: every point of the relaxation then has a fractional v.x, so
no 0/1 solution exists. Each single-constraint LP is a fractional
knapsack, whose greedy fill over a v_i/a_i ratio order matches the LP
vertex optimum (Dantzig, 1957) and can be read off one bisection of
prefix sums in that order. The order sorts exact integer keys:
floor(v_i 2^S / a_i) with 2^S above the square of every weight, so
distinct ratios get distinct keys. The order depends on (a, v) only, so
each side sorts once per (a, v) and keeps what it reads in a one-entry
memo of its own: the certifier's one equality LP call bisects the prefix
sums of a that ``_prepared`` builds for both ends of [vmin, vmax], the
max end over the ascending order reversed, and the verifier's one
inequality LP call, ``lp_extreme_ineq``, bisects the prefix sums of v
that ``_ascending`` builds for both ends of its good interval, the max
end at the level and the min end, by complement, at
||v||_1 - level - 1, in integers only: each end is an unreduced pair
(num, den), and the verifier cross-multiplies, so a verify builds no
Fraction and takes no gcd. The memos share nothing, so the verifier
stays an independent re-check of the certifier rather than a second
reading of its data. Each memo entry is one flat record: the checked a
and v, then a and v listed in greedy order as plain lists beside their
prefix sums, so a bisected item is read by its position; neither keeps
the order itself.

Each memo is its side's only per-pair cache, and it stands for the
checks: ``_prepared`` and ``_ascending`` alone rebind it, and each
checks a and v into a ``Weights`` and a ``Direction`` of its length,
the checked types of ``model``, before it sorts. ``certify``,
``lp_extreme_eq`` and ``lp_extreme_ineq`` read their side's memo first,
once. When a and v are its very objects, the pair was checked when it
entered, so only beta or the level is checked, and a run of calls on
one pair pays for its bisections and integer arithmetic and little
else. Otherwise the side's miss path checks a and v, sorts once and
rebinds the memo, and then beta or the level is checked: a call that
passes other objects, an equal copy or plain sequences included, pays
for one check and one sort.
The certifier and the verifier decide on the numerators and
denominators of their LP values in integers: beta is certified at
level floor(vmin) when vmin is not an integer and vmax is below that
level plus one, so a certify builds no Fraction and no vertex. Its
result is a NamedTuple, and its Certificate is one slotted object
holding beta, the level and the memo entry that certify read. It reads
the witnesses, the LP values as Fractions and the vertices that attain
them, from ``_lp_vertices`` only when they are asked for; no document
and no CLI command asks. That reader sorts and fills each vertex on its
own, touching neither memo.

The same call yields, for each branching level k, an open "good"
interval (max(a,k), min(a,k+1)) between consecutive levels, and so the
closed "bad" interval [min(a,k), max(a,k)] from the good intervals
k - 1 and k; good intervals contain exactly the certified right-hand
sides. ``enumerate_intervals`` lists these intervals over a window of
levels and judges nothing of them but their order. One exact coverage
report holds the paper's three claims, in closed form and without
enumerating levels. One such call finds the narrowest good interval,
at the centre level; its length must be positive and is compared
against scale - ||r||_1, the one place that claim is judged. The
integers in bad intervals are counted, and their share compared
against the exact bound 2 (||r||_1 + 1) / scale. The same count
brackets the certified share of the infeasible right-hand sides, the
figure of the paper's Corollary 1, since at most 2^n are feasible.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Literal, NamedTuple, Sequence

from .errors import CapacityError, DomainError, InvariantViolation
from .intmath import l1_norm
from .model import validate_direction, validate_weights
from .rng import SplitMix64

Sense = Literal["min", "max"]

ENUMERATION_CAP = 10**5

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CertifyStatus(enum.Enum):
    CERTIFIED = "certified"
    NO_CERTIFICATE = "no_certificate"
    TRIVIALLY_INFEASIBLE = "trivially_infeasible"
    TRIVIALLY_INFEASIBLE_GCD = "trivially_infeasible_gcd"


@dataclass(frozen=True, slots=True)
class Claim:
    """level < v.x < level + 1 on the relaxation of a.x = beta: what verify reads."""

    beta: int
    level: int


_WITNESSES = frozenset({"vmin", "vmax", "arg_min", "arg_max"})


@dataclass(frozen=True, eq=False)
class Certificate(Claim):
    """A Claim with the LP values and vertices that ``certify`` found.

    Equal and hashed as its Claim, by (beta, level). The keyword
    constructor takes ready-made witnesses and checks them; a certificate
    that ``certify`` builds sets beta, level and ``_source`` only, the
    memo entry whose a and v it certified, and reads its four witnesses
    from ``_lp_vertices`` on first access. Slotted, it has no instance
    dict. Copy and pickle go through Claim's field-list state, which
    reads every field, so a copy carries the witnesses themselves.
    """

    __slots__ = ("vmin", "vmax", "arg_min", "arg_max", "_source")

    vmin: Fraction
    vmax: Fraction
    arg_min: tuple[Fraction, ...]
    arg_max: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "arg_min", tuple(self.arg_min))
        object.__setattr__(self, "arg_max", tuple(self.arg_max))
        level, lo, hi = self.level, self.vmin, self.vmax
        if not (type(level) is int and type(lo) is type(hi) is Fraction):
            raise DomainError("certificate needs an int level and Fraction bounds")
        # cross-multiplied: a Fraction's denominator is positive
        if not (
            level * lo.denominator < lo.numerator
            and lo.numerator * hi.denominator <= hi.numerator * lo.denominator
            and hi.numerator < (level + 1) * hi.denominator
        ):
            raise DomainError("certificate bounds must satisfy l < vmin <= vmax < l+1")

    def __getattr__(self, name):
        # reached only for an unset slot: the witnesses of a found one
        if name not in _WITNESSES:
            raise AttributeError(name)
        source = self._source
        (vmin, arg_min), (vmax, arg_max) = _lp_vertices(source[0], source[1], self.beta)
        read = {"vmin": vmin, "vmax": vmax, "arg_min": arg_min, "arg_max": arg_max}
        for key, value in read.items():
            object.__setattr__(self, key, value)
        return read[name]


# The slot descriptors set a frozen field without the frozen __setattr__,
# so certify builds its Certificate with no __init__, check or Fraction
_new_certificate = object.__new__
_set_beta = Claim.beta.__set__
_set_level = Claim.level.__set__
_set_source = Certificate._source.__set__


class CertifyResult(NamedTuple):
    status: CertifyStatus
    beta: int
    certificate: Certificate | None = None


_new_tuple = tuple.__new__  # builds a CertifyResult without its __new__ frame
# certify's statuses, looked up once and not through the Enum class per call
_CERTIFIED = CertifyStatus.CERTIFIED
_NO_CERTIFICATE = CertifyStatus.NO_CERTIFICATE
_TRIVIALLY_INFEASIBLE = CertifyStatus.TRIVIALLY_INFEASIBLE


@dataclass(frozen=True, slots=True)
class IntervalCover:
    """Alternating bad/good intervals for levels k_lo..k_hi, and nothing else.

    ``bad`` holds the closed intervals [min(a, k), max(a, k)] for k in
    k_lo..k_hi and ``good`` the open ones between them. No length is
    judged here: exact ``CoverageStats`` reports the least good length
    of every level against scale - ||r||_1.
    """

    k_lo: int
    k_hi: int
    bad: tuple[tuple[Fraction, Fraction], ...]
    good: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True, slots=True)
class CoverageStats:
    """Certified / uncertified split of right-hand sides.

    In exact mode ``g``/``b`` count integers in good/bad intervals over
    the whole range {0, ..., ||a||_1}; in sampled mode they count
    certified/uncertified draws. Exact mode adds the paper's two other
    claims, None in sampled mode as ``sample_size`` and ``seed`` are in
    exact mode. Corollary 1: the g certified right-hand sides are
    infeasible and between 1 and 2^n are feasible, so the certified share
    of the infeasible ones lies in [1 - bad_fraction,
    certified_share_upper], the upper end min(1, g / (g + b - 2^n)) and
    None when g + b <= 2^n. ``corollary_1`` is "holds" when the lower end
    reaches the target 1 - two_pow_n_bound, "fails" when the upper end
    stays below it, and "undecided" otherwise. Every good interval is at
    least ``min_good_length`` wide, against the paper's scale - ||r||_1.
    """

    mode: str
    g: int
    b: int
    bad_fraction: Fraction
    bad_fraction_bound: Fraction
    two_pow_n_bound: Fraction
    sample_size: int | None = None
    seed: int | None = None
    certified_share_upper: Fraction | None = None
    corollary_1: Literal["holds", "fails", "undecided"] | None = None
    min_good_length: Fraction | None = None
    good_length_bound: Fraction | None = None
    good_length_bound_holds: bool | None = None


def _greedy_order(num, den, sense: Sense) -> list[int]:
    """Indices by num_i/den_i ratio: ascending for min, descending for max.

    Sorts the integer keys floor(num_i 2^S / den_i), S twice the bit
    length of the largest den. Distinct ratios differ by at least
    1/(den_i den_j) > 2^-S, so their keys differ and keep the order;
    equal ratios get equal keys, and the stable sort (stable also in
    reverse) resolves those ties to the smaller index.
    """
    shift = 2 * max(den).bit_length()
    keys = [(x << shift) // d for x, d in zip(num, den)]
    return sorted(range(len(keys)), key=keys.__getitem__, reverse=sense == "max")


# One-entry identity memos, each side's only per-pair cache: the flat
# record of the last pair each side served, rebound whole so that a reader
# never sees a torn entry. Only _prepared and _ascending rebind them, with
# a Weights and a Direction of its length, which are immutable and checked
# when built, so the same objects are the same checked pair: a hit needs no
# check. They start on two private objects, which no caller can pass.
_prepared_last = _ascending_last = (object(), object())


def _ascending(a: Sequence[int], v: Sequence[int]) -> tuple:
    """The verifier's memo entry (a, v, V, A, a_ord, v_ord), built anew.

    The miss path of ``lp_extreme_ineq``: checks a and v, sorts once and
    rebinds ``_ascending_last`` to the entry it returns. a_ord and v_ord
    list a and v in ascending v_i/a_i order, and V and A are their prefix
    sums, so ||v||_1 is V[-1] and ||a||_1 is A[-1]. All four are plain
    lists, whose subscripts CPython specialises and those of the typed
    tuples it does not. Both one-sided LPs of a verify bisect V. The
    certifier's ``_prepared`` neither reads nor rebinds it.
    """
    global _ascending_last
    a = validate_weights(a)
    v = validate_direction(v, len(a))
    order = _greedy_order(v, a, "min")
    a_ord = [a[i] for i in order]
    v_ord = [v[i] for i in order]
    V = list(accumulate(v_ord, initial=0))
    A = list(accumulate(a_ord, initial=0))
    last = _ascending_last = (a, v, V, A, a_ord, v_ord)
    return last


def _prepared(a: Sequence[int], v: Sequence[int]) -> tuple:
    """The certifier's memo entry: a, v, coprime, ||a||_1, min side, max side.

    The miss path of ``certify`` and ``lp_extreme_eq``: checks a and v,
    sorts once and rebinds ``_prepared_last`` to the entry it returns.
    The min side lists a and v in ascending v_i/a_i order, and the max
    side in that order reversed, each as plain lists a_ord and v_ord
    beside their prefix sums A and V, all that ``lp_extreme_eq`` reads.
    On tied ratios the reversed order takes the larger index first, which
    changes no LP value. No order is kept: the witness reader
    ``_lp_vertices`` sorts for itself.
    """
    global _prepared_last
    a = validate_weights(a)
    v = validate_direction(v, len(a))
    order = _greedy_order(v, a, "min")
    a_ord = [a[i] for i in order]
    v_ord = [v[i] for i in order]
    record = [a, v, math.gcd(*a) == 1, sum(a)]
    for a_side, v_side in ((a_ord, v_ord), (a_ord[::-1], v_ord[::-1])):
        A = list(accumulate(a_side, initial=0))
        V = list(accumulate(v_side, initial=0))
        record += A, V, a_side, v_side
    last = _prepared_last = tuple(record)
    return last


def lp_extreme_eq(
    a: Sequence[int], v: Sequence[int], beta: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """(vmin, vmax) of v.x over {a.x = beta, 0 <= x <= e}, in integers.

    Each end is an unreduced pair (num, den), den > 0: the greedy fill by
    v_i/a_i ratio, ascending for the minimum and descending for the
    maximum, answered by one bisection of its prefix sums of a. The items
    before the bisected one are whole, and that one takes the remainder:
    (V_j a_j + v_j rest, a_j), or (V_j, 1) when the prefix sum A_j is
    beta itself, with a_j and v_j the bisected item's entries. The memo
    entry is read once, for both ends: when a and v are its objects, the
    pair was checked when it entered and only beta is checked; otherwise
    ``_prepared`` checks a and v, sorts and rebinds the memo, and then
    beta is checked. No Fraction and no vertex is built, which
    ``_lp_vertices`` does for the witnesses. DomainError unless beta is an
    int in [0, ||a||_1].
    """
    last = _prepared_last
    if last[0] is not a or last[1] is not v:
        last = _prepared(a, v)
    if not isinstance(beta, int):
        raise DomainError("beta must be an integer")
    _, _, _, total, A, V, a_lo, v_lo, A_hi, V_hi, a_hi, v_hi = last
    if beta < 0 or beta > total:
        raise DomainError(f"right-hand side {beta} outside [0, {total}]")
    j = bisect_right(A, beta) - 1
    rest = beta - A[j]
    if rest:
        den = a_lo[j]
        lo = V[j] * den + v_lo[j] * rest, den
    else:
        lo = V[j], 1
    j = bisect_right(A_hi, beta) - 1
    rest = beta - A_hi[j]
    if rest:
        den = a_hi[j]
        return lo, (V_hi[j] * den + v_hi[j] * rest, den)
    return lo, (V_hi[j], 1)


def _lp_vertices(
    a: Sequence[int], v: Sequence[int], beta: int
) -> tuple[tuple[Fraction, tuple[Fraction, ...]], ...]:
    """((vmin, arg_min), (vmax, arg_max)) of v.x over {a.x = beta, 0 <= x <= e}.

    The witness reader: the greedy fills of ``lp_extreme_eq``, as
    Fractions and as vertices listed by index, each filled here in the
    ``_greedy_order`` of its sense, ties to the smaller index. It reads
    and rebinds neither memo, and is called only when witnesses
    are asked for. Each vertex has at most one fractional coordinate.
    DomainError unless beta is an int in [0, ||a||_1].
    """
    a = validate_weights(a)
    v = validate_direction(v, len(a))
    _validate_int(beta, "beta")
    total = sum(a)
    if beta < 0 or beta > total:
        raise DomainError(f"right-hand side {beta} outside [0, {total}]")
    ends = []
    for sense in ("min", "max"):
        # the items before the first that does not fit are whole, and a
        # nonzero rest, left only by a break, goes to that one
        x = [_ZERO] * len(a)
        whole, rest = 0, beta
        for i in _greedy_order(v, a, sense):
            if rest < a[i]:
                break
            x[i] = _ONE
            whole += v[i]
            rest -= a[i]
        if rest:
            x[i] = Fraction(rest, a[i])
            ends.append((Fraction(whole * a[i] + v[i] * rest, a[i]), tuple(x)))
        else:
            ends.append((Fraction(whole), tuple(x)))
    return tuple(ends)


def lp_extreme_ineq(
    a: Sequence[int], v: Sequence[int], level: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The good interval (max(a, level), min(a, level + 1)) over the box.

    max(a, k) is max{a.x | v.x <= k} and min(a, k) is min{a.x | v.x >= k}
    over the box, each an unreduced integer pair (num, den), den > 0.
    The max side is the greedy fractional knapsack in ascending v_i/a_i
    order (Dantzig, 1957): the items before the first prefix sum of v
    past level are whole, and the next one takes the rest of level, so
    one bisection of V finds the optimum. The items with v_i = 0 head the
    order at no cost, and V repeats 0 for them, so bisect_right takes
    them all. The min side is the complement y = e - x: min(a, level + 1)
    is ||a||_1 - max(a, ||v||_1 - level - 1), one more bisection of V.
    a and v listed in that order, and their prefix sums V and A, are
    the verifier's own, kept per (a, v) in the memo that ``_ascending``
    rebinds, apart from the certifier's, so the check shares no data with
    what it checks. The memo entry is read once: when a and v are its
    objects only the level is checked, and otherwise ``_ascending``
    checks a and v, sorts and rebinds the memo, and then the level is
    checked. DomainError unless level is an int in [0, ||v||_1), where
    both LPs are feasible.
    """
    last = _ascending_last
    if last[0] is not a or last[1] is not v:
        last = _ascending(a, v)
    if not isinstance(level, int):
        raise DomainError("level must be an integer")
    _, _, V, A, a_ord, v_ord = last
    total_v = V[-1]
    if level < 0 or level >= total_v:
        raise DomainError("level outside [0, ||v||_1)")
    # both bisected levels lie in [0, ||v||_1), so j < n names an item
    j = bisect_right(V, level) - 1
    rest = level - V[j]
    if rest:
        den = v_ord[j]
        hi = A[j] * den + a_ord[j] * rest, den
    else:
        hi = A[j], 1
    level = total_v - level - 1
    j = bisect_right(V, level) - 1
    rest = level - V[j]
    if rest:
        den = v_ord[j]
        return hi, ((A[-1] - A[j]) * den - a_ord[j] * rest, den)
    return hi, (A[-1] - A[j], 1)


def _validate_int(value: int, name: str) -> None:
    if not isinstance(value, int):
        raise DomainError(f"{name} must be an integer")


def certify(a: Sequence[int], v: Sequence[int], beta: int) -> CertifyResult:
    """Certificate for beta when no integer lies in [vmin, vmax].

    Out-of-range beta is trivially infeasible; otherwise either a
    Certificate (sound: the relaxation traps v.x strictly between
    consecutive integers) or no_certificate. DomainError unless beta is
    an int and the weights are coprime. Coprimality and ||a||_1 come
    from the data prepared once per (a, v), as do the greedy orders of
    the one lp_extreme_eq call. The memo entry is read once: when a and v
    are its objects, the pair was checked when it entered, so only beta
    is checked and a repeated pair costs two bisections per beta, with
    no type check; otherwise ``_prepared`` checks a and v, sorts and
    rebinds the memo, whose own objects go to lp_extreme_eq, and then
    beta is checked. The decision is on integers: with
    vmin = p/q and vmax = r/s, beta is certified at level p // q when q
    does not divide p and r < (p // q + 1) s. No Fraction and no vertex
    is built: the Certificate is one slotted object holding beta, the
    level and the memo entry this call read, and reads its witnesses
    only when they are asked for.
    """
    last = _prepared_last
    if last[0] is not a or last[1] is not v:
        last = _prepared(a, v)
        a, v = last[:2]  # the lp_extreme_eq call below hits the memo
    if not isinstance(beta, int):
        raise DomainError("beta must be an integer")
    if not last[2]:
        raise DomainError("weights not coprime")
    if beta < 0 or beta > last[3]:
        return _new_tuple(CertifyResult, (_TRIVIALLY_INFEASIBLE, beta, None))
    (lo, lo_den), (hi, hi_den) = lp_extreme_eq(a, v, beta)
    # vmax < level + 1 with level = floor(vmin) < vmin: no integer in [vmin, vmax]
    level, frac = divmod(lo, lo_den)
    if frac and hi < (level + 1) * hi_den:
        # the entry read above, never the global, which another call may
        # have replaced since: the witnesses are this pair's
        cert = _new_certificate(Certificate)
        _set_beta(cert, beta)
        _set_level(cert, level)
        _set_source(cert, last)
        return _new_tuple(CertifyResult, (_CERTIFIED, beta, cert))
    return _new_tuple(CertifyResult, (_NO_CERTIFICATE, beta, None))


def verify_certificate(a: Sequence[int], v: Sequence[int], claim: Claim) -> bool:
    """Independent check: max(a, level) < beta < min(a, level + 1).

    Recomputes the good interval of the claim's level with one
    lp_extreme_ineq call and reads nothing else of the claim but beta;
    any malformed input yields False. That call checks a, v and the
    level, and refuses a level that is not an int or lies outside
    [0, ||v||_1), so its DomainError is the rejection. Each end is an
    unreduced (num, den) with den > 0, and the decision is two
    cross-multiplications, hi < beta hi_den and beta lo_den < lo: no
    Fraction is built and no gcd taken.
    """
    beta = claim.beta
    if not isinstance(beta, int):
        return False
    try:
        (hi, hi_den), (lo, lo_den) = lp_extreme_ineq(a, v, claim.level)
    except DomainError:
        return False
    return hi < beta * hi_den and beta * lo_den < lo


def witnesses_consistent(a: Sequence[int], v: Sequence[int], cert: Claim) -> bool:
    """Do the witnesses attain vmin/vmax and satisfy a.x = beta?

    False for malformed a or v, and for a claim without witnesses, such
    as a plain Claim.
    """
    try:
        a = validate_weights(a)
        v = validate_direction(v, len(a))
        ends = ((cert.arg_min, cert.vmin), (cert.arg_max, cert.vmax))
    except (AttributeError, DomainError):
        return False
    for arg, target in ends:
        if len(arg) != len(a):
            return False
        if any(x < 0 or x > 1 for x in arg):
            return False
        if sum(ai * xi for ai, xi in zip(a, arg)) != cert.beta:
            return False
        if sum(vi * xi for vi, xi in zip(v, arg)) != target:
            return False
    return True


def enumerate_intervals(
    a: Sequence[int], v: Sequence[int], *, k_lo: int = 0, k_hi: int | None = None
) -> IntervalCover:
    """Bad/good intervals for levels k_lo..k_hi, endpoints exact.

    Full enumeration is only possible when the level range fits
    ENUMERATION_CAP; ||v||_1 can be astronomically large, in which
    case callers must request a partial window. DomainError unless k_lo
    and k_hi are ints. Bad interval k is [min(a, k), max(a, k)], read off
    the good intervals k - 1 and k of ``lp_extreme_ineq``; at the edges
    min(a, 0) is 0 and max(a, ||v||_1) is ||a||_1. The order and overlap
    checks cross-multiply those integer pairs; only the returned cover
    holds Fractions. How long the good intervals are is judged by exact
    ``coverage_stats``, for every level at once.
    """
    a, v, V, A = _ascending(a, v)[:4]
    ve = V[-1]
    if k_hi is None:
        k_hi = ve
    _validate_int(k_lo, "k_lo")
    _validate_int(k_hi, "k_hi")
    if not 0 <= k_lo <= k_hi <= ve:
        raise DomainError("need 0 <= k_lo <= k_hi <= ||v||_1")
    if k_hi - k_lo > ENUMERATION_CAP:
        raise CapacityError(
            f"level range of {(k_hi - k_lo).bit_length()} bits exceeds the cap "
            f"{ENUMERATION_CAP}; enumerate a partial window [k_lo, k_hi] instead"
        )
    # goods[k - first] is (max(a, k), min(a, k + 1)), for each level k < ||v||_1
    first = max(k_lo - 1, 0)
    goods = [lp_extreme_ineq(a, v, k) for k in range(first, min(k_hi, ve - 1) + 1)]
    levels = range(k_lo, k_hi + 1)
    min_pairs = [goods[k - 1 - first][1] if k else (0, 1) for k in levels]
    max_pairs = [goods[k - first][0] if k < ve else (A[-1], 1) for k in levels]
    for (lo, lo_den), (hi, hi_den) in zip(min_pairs, max_pairs):
        if lo * hi_den > hi * lo_den:
            raise InvariantViolation("bad interval endpoints out of order")
    for (hi, hi_den), (lo, lo_den) in zip(max_pairs, min_pairs[1:]):
        if lo * hi_den <= hi * lo_den:
            raise DomainError(
                "consecutive levels overlap; decomposition hypotheses violated"
            )
    mins = [Fraction(*pair) for pair in min_pairs]
    maxs = [Fraction(*pair) for pair in max_pairs]
    return IntervalCover(
        k_lo=k_lo, k_hi=k_hi, bad=tuple(zip(mins, maxs)), good=tuple(zip(maxs, mins[1:]))
    )


def _bad_count(a, v) -> tuple[int, Fraction]:
    """Integers of [0, ||a||_1] in bad intervals, and the least good length.

    With M(k) = max(a, k), min(a, k) = ||a||_1 - M(||v||_1 - k), so the
    count is 2 sum_k floor(M(k)) - (||v||_1 + 1)(||a||_1 - 1). M is linear
    between the prefix sums of v in greedy order, over whole periods, so
    each segment adds a full-period floor sum (Graham, Knuth & Patashnik,
    Concrete Mathematics, 3.5). The count needs disjoint levels. The good
    length min(a, k+1) - max(a, k) = ||a||_1 - M(||v||_1 - 1 - k) - M(k) is
    convex in k (M is concave) and symmetric about (||v||_1 - 1)/2, so its
    least value is at the centre; DomainError if it is not positive there.
    Neither figure enumerates levels.
    """
    a, v, V, A, a_ord, v_ord = _ascending(a, v)
    total, total_v = A[-1], V[-1]
    (hi, hi_den), (lo, lo_den) = lp_extreme_ineq(a, v, (total_v - 1) // 2)
    least = lo * hi_den - hi * lo_den
    if least <= 0:
        raise DomainError("consecutive levels overlap; decomposition hypotheses violated")
    floors = total
    for ai, vi, done in zip(a_ord, v_ord, A):
        floors += vi * done
        floors += ((ai - 1) * (vi - 1) + math.gcd(ai, vi) - 1) // 2
    return 2 * floors - (total_v + 1) * (total - 1), Fraction(least, hi_den * lo_den)


def coverage_stats(
    a: Sequence[int],
    v: Sequence[int],
    scale: Fraction,
    residual: Sequence[Fraction],
    mode: str,
    sample_size: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> CoverageStats:
    """Exact or sampled share of uncertified right-hand sides.

    Exact mode counts the integers in bad intervals in closed form
    (DomainError when levels overlap) and reports Corollary 1 and the
    least good length from the same pass; it needs no coprime weights,
    since a right-hand side in a good interval is infeasible for every a.
    Sampled mode draws beta uniformly from {0, ..., ||a||_1} with the
    given seed and classifies each via certify, in this process.
    ``workers`` must be >= 1 and is otherwise unread: it stays for the
    benchmark's calls and goes with the sampled mode (ROADMAP items 1b
    and 2). DomainError unless scale > 0 and residual has n entries.
    """
    a = validate_weights(a)
    v = validate_direction(v, len(a))
    if workers < 1:
        raise DomainError("workers must be >= 1")
    n = len(a)
    scale = Fraction(scale)
    if scale <= 0:
        raise DomainError("scale must be positive")
    if len(residual) != n:
        raise DomainError("residual length differs from weight length")
    r_l1 = l1_norm(tuple(Fraction(r) for r in residual))
    bound = 2 * (r_l1 + 1) / scale
    two_pow = Fraction(1, 1 << n)
    if mode == "exact":
        total = sum(a) + 1
        b, least = _bad_count(a, v)
        g = total - b
        frac = Fraction(b, total)
        if frac > bound:
            raise InvariantViolation("bad fraction exceeds its bound")
        if not 0 <= g < total:  # beta = 0 is feasible
            raise InvariantViolation("certified count outside [0, total)")
        # at most 2^n of the total right-hand sides are feasible
        upper = min(_ONE, Fraction(g, total - (1 << n))) if total > 1 << n else None
        if frac <= two_pow:
            verdict = "holds"
        elif upper is not None and upper < 1 - two_pow:
            verdict = "fails"
        else:
            verdict = "undecided"
        length_bound = scale - r_l1
        return CoverageStats(
            mode=mode, g=g, b=b, bad_fraction=frac,
            bad_fraction_bound=bound, two_pow_n_bound=two_pow,
            certified_share_upper=upper, corollary_1=verdict,
            min_good_length=least, good_length_bound=length_bound,
            good_length_bound_holds=least >= length_bound,
        )
    if mode != "sampled":
        raise DomainError('mode must be "exact" or "sampled"')
    if not sample_size or sample_size < 1:
        raise DomainError("sampled mode needs sample_size >= 1")
    if seed is None:
        raise DomainError("sampled mode needs a seed")
    rng = SplitMix64(seed)
    total = sum(a)
    certified = sum(
        certify(a, v, rng.randint(0, total)).status is CertifyStatus.CERTIFIED
        for _ in range(sample_size)
    )
    uncertified = sample_size - certified
    return CoverageStats(
        mode=mode, g=certified, b=uncertified,
        bad_fraction=Fraction(uncertified, sample_size),
        bad_fraction_bound=bound, two_pow_n_bound=two_pow,
        sample_size=sample_size, seed=seed,
    )
