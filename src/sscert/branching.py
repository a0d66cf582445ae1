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
each side keeps it and its prefix sums once per (a, v) in a small cache
of its own: the certifier's one equality LP call bisects the prefix sums
of a in ``_prepared`` for both ends of [vmin, vmax], and the verifier's
one inequality LP call, ``lp_extreme_ineq``, bisects the prefix sums of
v in ``_ascending`` for both ends of its good interval, the max end at
the level and the min end, by complement, at ||v||_1 - level - 1, in
integers only: each end is an unreduced pair (num, den), and the
verifier cross-multiplies, so a verify builds no Fraction and takes no
gcd. The caches share nothing, so the verifier stays an independent
re-check of the certifier rather than a second reading of its data. In
front of each cache sits a one-entry identity memo: when a and v are
the very objects of that side's last lookup, the data comes back
without hashing (a, v), a tuple of long integers, so a run of calls on
one pair pays for its bisections and little else; an alternating pair
falls through to the cache.

Every entry point checks a and v once, into the ``Weights`` and
``Direction`` types of ``model``; a typed tuple passes any later check
with one type test, so the entry points hand them to each other and to
the caches, which only ever see checked vectors. The certifier and the
verifier decide on the numerators and denominators of their LP values
in integers: beta is certified at level floor(vmin) when vmin is not an
integer and vmax is below that level plus one, so a certify builds no
Fraction and no vertex. Its result is a NamedTuple, and its Certificate
holds beta, the level, a and v, and reads the witnesses, the LP values
as Fractions and the vertices that attain them, from ``_lp_vertices``
only when they are asked for; no document and no CLI command asks.

The same call yields, for each branching level k, an open "good"
interval (max(a,k), min(a,k+1)) between consecutive levels, and so the
closed "bad" interval [min(a,k), max(a,k)] from the good intervals
k - 1 and k; good intervals contain exactly the certified right-hand
sides. Exact coverage statistics count the integers in bad intervals in
closed form, without enumerating levels, after one such call checks
that the narrowest good interval is not empty, and compare the
share against the exact bound 2 (||r||_1 + 1) / scale. The same count
brackets the certified share of the infeasible right-hand sides, the
figure of the paper's Corollary 1, since at most 2^n are feasible.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import Literal, NamedTuple, Sequence

from .errors import CapacityError, DomainError, InvariantViolation
from .intmath import l1_norm
from .model import Direction, Weights, validate_direction, validate_weights
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
    that ``certify`` builds holds beta, level, a and v only, and reads
    its four witnesses from ``_lp_vertices`` on first access. Copy and
    pickle go through Claim's field-list state, which reads every field,
    so a copy carries the witnesses themselves.
    """

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
        # reached only for an unset attribute: the witnesses of a found one
        if name not in _WITNESSES:
            raise AttributeError(name)
        a, v = self._source
        (vmin, arg_min), (vmax, arg_max) = _lp_vertices(a, v, self.beta)
        self.__dict__.update(vmin=vmin, vmax=vmax, arg_min=arg_min, arg_max=arg_max)
        return self.__dict__[name]


# Claim's slot descriptors set a frozen field without the frozen __setattr__
_set_beta = Claim.beta.__set__
_set_level = Claim.level.__set__


def _found(beta: int, level: int, a: Weights, v: Direction) -> Certificate:
    """certify's Certificate: no Fraction, no vertex and no check until read."""
    cert = object.__new__(Certificate)
    _set_beta(cert, beta)
    _set_level(cert, level)
    cert.__dict__["_source"] = (a, v)
    return cert


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
    """Alternating bad/good intervals for levels k_lo..k_hi."""

    k_lo: int
    k_hi: int
    bad: tuple[tuple[Fraction, Fraction], ...]
    good: tuple[tuple[Fraction, Fraction], ...]
    min_good_length: Fraction | None
    good_length_bound: Fraction
    good_length_bound_holds: bool


@dataclass(frozen=True, slots=True)
class CoverageStats:
    """Certified / uncertified split of right-hand sides.

    In exact mode ``g``/``b`` count integers in good/bad intervals over
    the whole range {0, ..., ||a||_1}; in sampled mode they count
    certified/uncertified draws.
    """

    mode: str
    g: int
    b: int
    bad_fraction: Fraction
    bad_fraction_bound: Fraction
    two_pow_n_bound: Fraction
    sample_size: int | None = None
    seed: int | None = None


@dataclass(frozen=True, slots=True)
class InfeasibleCoverageReport:
    """Certified share of the infeasible right-hand sides, bracketed exactly.

    ``certified`` of the ``total`` = ||a||_1 + 1 right-hand sides are
    certified, all of them infeasible, and between 1 and 2^n are
    feasible, so the share lies in [lower, upper] = [certified / total,
    min(1, certified / (total - 2^n))]; ``upper`` is None when
    total <= 2^n. The verdict is "holds" when lower reaches the target
    1 - 2^-n, "fails" when upper stays below it, and "undecided"
    otherwise.
    """

    total: int
    certified: int
    lower: Fraction
    upper: Fraction | None
    target: Fraction
    verdict: Literal["holds", "fails", "undecided"]

    def __post_init__(self):
        if not 0 <= self.certified < self.total:  # beta = 0 is feasible
            raise InvariantViolation("certified count outside [0, total)")


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


@lru_cache(maxsize=8)
def _ascending(a: Weights, v: Direction) -> tuple[tuple[int, ...], ...]:
    """The verifier's (order, V, A) of a, v.

    ``order`` is the ascending v_i/a_i order, and V and A the prefix sums
    of v and a in that order, so ||v||_1 is V[-1] and ||a||_1 is A[-1].
    Both one-sided LPs of a verify bisect V, so a verify sorts and sums
    once for a new pair and not at all for a repeated one. The types say
    a and v were checked: Fraction and float entries hash equal to ints,
    so the cache must only see checked vectors. The certifier's
    ``_prepared`` neither reads nor fills it.
    """
    order = tuple(_greedy_order(v, a, "min"))
    V = tuple(accumulate((v[i] for i in order), initial=0))
    A = tuple(accumulate((a[i] for i in order), initial=0))
    return order, V, A


@lru_cache(maxsize=8)
def _prepared(a: Weights, v: Direction):
    """(coprime, ||a||_1, (min side, max side)) of a, v.

    Each side is (order, A, V, place): ``order`` is the greedy order of
    its sense, and A and V the prefix sums of a and v in that order, all
    that ``lp_extreme_eq`` reads. ``place`` serves only the witness
    reader ``_lp_vertices``: it turns a vertex listed in greedy order
    into one listed by index, entry i of its result being entry rank(i)
    of its argument, rank(i) being i's position in ``order``. One
    permutation stands in for the n + 1 partial 0/1 vertices, which
    would take n^2 memory. The types say a and v were checked: Fraction
    and float entries hash equal to ints, so the cache must only see
    checked vectors.
    """
    n = len(a)
    sides = []
    for sense in ("min", "max"):
        order = _greedy_order(v, a, sense)
        A, V, rank = [0], [0], [0] * n
        for r, i in enumerate(order):
            A.append(A[-1] + a[i])
            V.append(V[-1] + v[i])
            rank[i] = r
        # itemgetter of one index returns the item, not a 1-tuple
        place = itemgetter(*rank) if n > 1 else tuple
        sides.append((order, A, V, place))
    return math.gcd(*a) == 1, sum(a), tuple(sides)


# One-entry identity memos in front of the two caches: (a, v, data) of
# the last pair each one served, rebound whole so that a reader never
# sees a torn entry. Weights and Direction are immutable and checked
# when built, so the same objects are the same pair, with no hashing.
_prepared_last = (None, None, None)
_ascending_last = (None, None, None)


def _prepared_of(a: Weights, v: Direction):
    """``_prepared(a, v)``, from the memo when a and v are its objects."""
    global _prepared_last
    last = _prepared_last
    if last[0] is a and last[1] is v:
        return last[2]
    data = _prepared(a, v)
    _prepared_last = (a, v, data)
    return data


def _ascending_of(a: Weights, v: Direction):
    """``_ascending(a, v)``, from the memo when a and v are its objects."""
    global _ascending_last
    last = _ascending_last
    if last[0] is a and last[1] is v:
        return last[2]
    data = _ascending(a, v)
    _ascending_last = (a, v, data)
    return data


def lp_extreme_eq(
    a: Sequence[int], v: Sequence[int], beta: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """(vmin, vmax) of v.x over {a.x = beta, 0 <= x <= e}, in integers.

    Each end is an unreduced pair (num, den), den > 0: the greedy fill by
    v_i/a_i ratio, ascending for the minimum and descending for the
    maximum, answered by one bisection of its prefix sums of a. The items
    before the bisected one are whole, and that one takes the remainder:
    (V_j a_i + v_i rest, a_i), or (V_j, 1) when the prefix sum A_j is
    beta itself. a, v and beta are checked once, and the pair is looked
    up once for both ends, through the identity memo when a and v are the
    objects of the last lookup; no Fraction and no vertex is built, which
    ``_lp_vertices`` does for the witnesses. DomainError unless beta is an
    int in [0, ||a||_1].
    """
    # the checks of validate_weights, validate_direction and _validate_int,
    # inline on the per-beta path
    if type(a) is not Weights:
        a = Weights(a)
    if type(v) is not Direction or len(v) != len(a):
        v = validate_direction(v, len(a))
    if not isinstance(beta, int):
        raise DomainError("beta must be an integer")
    _, total, ((order, A, V, _), (order_hi, A_hi, V_hi, _)) = _prepared_of(a, v)
    if beta < 0 or beta > total:
        raise DomainError(f"right-hand side {beta} outside [0, {total}]")
    j = bisect_right(A, beta) - 1
    rest = beta - A[j]
    if rest:
        i = order[j]
        lo = V[j] * a[i] + v[i] * rest, a[i]
    else:
        lo = V[j], 1
    j = bisect_right(A_hi, beta) - 1
    rest = beta - A_hi[j]
    if rest:
        i = order_hi[j]
        return lo, (V_hi[j] * a[i] + v[i] * rest, a[i])
    return lo, (V_hi[j], 1)


def _lp_vertices(
    a: Sequence[int], v: Sequence[int], beta: int
) -> tuple[tuple[Fraction, tuple[Fraction, ...]], ...]:
    """((vmin, arg_min), (vmax, arg_max)) of v.x over {a.x = beta, 0 <= x <= e}.

    The witness reader: the same greedy fills as ``lp_extreme_eq``, as
    Fractions and as vertices listed by index through ``place``. Each
    vertex has at most one fractional coordinate. DomainError unless beta
    is an int in [0, ||a||_1].
    """
    a = validate_weights(a)
    v = validate_direction(v, len(a))
    _validate_int(beta, "beta")
    _, total, sides = _prepared_of(a, v)
    if beta < 0 or beta > total:
        raise DomainError(f"right-hand side {beta} outside [0, {total}]")
    n = len(a)
    ends = []
    for order, A, V, place in sides:
        j = bisect_right(A, beta) - 1
        if A[j] == beta:
            ends.append((Fraction(V[j]), place((_ONE,) * j + (_ZERO,) * (n - j))))
            continue
        i, rest = order[j], beta - A[j]
        x = place((_ONE,) * j + (Fraction(rest, a[i]),) + (_ZERO,) * (n - j - 1))
        ends.append((Fraction(V[j] * a[i] + v[i] * rest, a[i]), x))
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
    The order and its prefix sums V and A are the verifier's own, kept
    per (a, v) in ``_ascending`` behind the identity memo, apart from the
    certifier's: a, v and level are checked once, the pair is looked up
    once, and the check shares no data with what it checks. DomainError
    unless level is an int in [0, ||v||_1), where both LPs are feasible.
    """
    # the checks of validate_weights, validate_direction and _validate_int,
    # and the memo test of _ascending_of, inline on the per-claim path
    if type(a) is not Weights:
        a = Weights(a)
    if type(v) is not Direction or len(v) != len(a):
        v = validate_direction(v, len(a))
    if not isinstance(level, int):
        raise DomainError("level must be an integer")
    last = _ascending_last
    if last[0] is a and last[1] is v:
        order, V, A = last[2]
    else:
        order, V, A = _ascending_of(a, v)
    total_v = V[-1]
    if level < 0 or level >= total_v:
        raise DomainError("level outside [0, ||v||_1)")
    # both bisected levels lie in [0, ||v||_1), so j < n names an item
    j = bisect_right(V, level) - 1
    rest = level - V[j]
    if rest:
        i = order[j]
        hi = A[j] * v[i] + a[i] * rest, v[i]
    else:
        hi = A[j], 1
    level = total_v - level - 1
    j = bisect_right(V, level) - 1
    rest = level - V[j]
    if rest:
        i = order[j]
        den = v[i]
        return hi, ((A[-1] - A[j]) * den - a[i] * rest, den)
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
    the one lp_extreme_eq call; both look it up through the identity
    memo, so a repeated pair, passed as the same Weights and Direction
    objects, costs two bisections per beta and no hashing. The decision
    is on integers: with vmin = p/q and vmax = r/s, beta is certified at
    level p // q when q does not divide p and r < (p // q + 1) s. No
    Fraction and no vertex is built: the Certificate holds beta, the
    level, a and v, and reads its witnesses only when they are asked
    for.
    """
    # the checks of validate_weights, validate_direction and _validate_int,
    # inline on the per-beta path
    if type(a) is not Weights:
        a = Weights(a)
    if type(v) is not Direction or len(v) != len(a):
        v = validate_direction(v, len(a))
    if not isinstance(beta, int):
        raise DomainError("beta must be an integer")
    coprime, total, _ = _prepared_of(a, v)
    if not coprime:
        raise DomainError("weights not coprime")
    if beta < 0 or beta > total:
        return _new_tuple(CertifyResult, (_TRIVIALLY_INFEASIBLE, beta, None))
    (lo, lo_den), (hi, hi_den) = lp_extreme_eq(a, v, beta)
    # vmax < level + 1 with level = floor(vmin) < vmin: no integer in [vmin, vmax]
    level, frac = divmod(lo, lo_den)
    if frac and hi < (level + 1) * hi_den:
        return _new_tuple(CertifyResult, (_CERTIFIED, beta, _found(beta, level, a, v)))
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
    a: Sequence[int],
    v: Sequence[int],
    scale: Fraction,
    residual: Sequence[Fraction],
    k_lo: int = 0,
    k_hi: int | None = None,
) -> IntervalCover:
    """Bad/good intervals for levels k_lo..k_hi, endpoints exact.

    Full enumeration is only possible when the level range fits
    ENUMERATION_CAP; ||v||_1 can be astronomically large, in which
    case callers must request a partial window. DomainError unless k_lo
    and k_hi are ints. Bad interval k is [min(a, k), max(a, k)], read off
    the good intervals k - 1 and k of ``lp_extreme_ineq``; at the edges
    min(a, 0) is 0 and max(a, ||v||_1) is ||a||_1. The order and overlap
    checks cross-multiply those integer pairs; only the returned cover
    holds Fractions.
    """
    a = validate_weights(a)
    v = validate_direction(v, len(a))
    _, V, A = _ascending_of(a, v)
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
        if not hi * lo_den < lo * hi_den:
            raise DomainError(
                "consecutive levels overlap; decomposition hypotheses violated"
            )
    mins = [Fraction(*pair) for pair in min_pairs]
    maxs = [Fraction(*pair) for pair in max_pairs]
    bad = tuple(zip(mins, maxs))
    good = tuple(zip(maxs, mins[1:]))
    bound = scale - l1_norm(residual)
    min_len = min((hi - lo for lo, hi in good), default=None)
    return IntervalCover(
        k_lo=k_lo,
        k_hi=k_hi,
        bad=bad,
        good=good,
        min_good_length=min_len,
        good_length_bound=Fraction(bound),
        good_length_bound_holds=(min_len is None or min_len >= bound),
    )


def _bad_count(a, v) -> int:
    """Integers of [0, ||a||_1] in bad intervals, without enumerating levels.

    With M(k) = max(a, k), min(a, k) = ||a||_1 - M(||v||_1 - k), so the
    count is 2 sum_k floor(M(k)) - (||v||_1 + 1)(||a||_1 - 1). M is linear
    between the prefix sums of v in greedy order, over whole periods, so
    each segment adds a full-period floor sum (Graham, Knuth & Patashnik,
    Concrete Mathematics, 3.5). The count needs disjoint levels. The good
    length min(a, k+1) - max(a, k) = ||a||_1 - M(||v||_1 - 1 - k) - M(k) is
    convex in k (M is concave) and symmetric about (||v||_1 - 1)/2, so its
    least value is at the centre; DomainError if it is not positive there.
    """
    order, V, A = _ascending_of(a, v)
    total, total_v = A[-1], V[-1]
    (hi, hi_den), (lo, lo_den) = lp_extreme_ineq(a, v, (total_v - 1) // 2)
    if lo * hi_den <= hi * lo_den:
        raise DomainError("consecutive levels overlap; decomposition hypotheses violated")
    floors = total
    for i, done in zip(order, A):
        floors += v[i] * done
        floors += ((a[i] - 1) * (v[i] - 1) + math.gcd(a[i], v[i]) - 1) // 2
    return 2 * floors - (total_v + 1) * (total - 1)


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
    (DomainError when levels overlap); sampled mode draws beta uniformly
    from {0, ..., ||a||_1} with the given seed and classifies each via
    certify, in this process. ``workers`` must be >= 1 and is otherwise
    unread: it stays for the benchmark's calls and goes with the sampled
    mode (ROADMAP items 1b and 2).
    """
    a = validate_weights(a)
    v = validate_direction(v, len(a))
    if workers < 1:
        raise DomainError("workers must be >= 1")
    n = len(a)
    bound = 2 * (l1_norm(tuple(Fraction(r) for r in residual)) + 1) / Fraction(scale)
    two_pow = Fraction(1, 1 << n)
    if mode == "exact":
        total = sum(a) + 1
        b = _bad_count(a, v)
        g = total - b
        frac = Fraction(b, total)
        if frac > bound:
            raise InvariantViolation("bad fraction exceeds its bound")
        return CoverageStats(
            mode=mode, g=g, b=b, bad_fraction=frac,
            bad_fraction_bound=bound, two_pow_n_bound=two_pow,
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


def infeasible_coverage_report(
    a: Sequence[int], v: Sequence[int]
) -> InfeasibleCoverageReport:
    """Corollary 1's bracket: the certified count in closed form, at every n.

    DomainError when the weights are not coprime or levels overlap.
    """
    a = validate_weights(a)
    v = validate_direction(v, len(a))
    if math.gcd(*a) != 1:
        raise DomainError("weights not coprime")
    total = sum(a) + 1
    certified = total - _bad_count(a, v)
    most_feasible = 1 << len(a)
    lower = Fraction(certified, total)
    upper = (
        min(_ONE, Fraction(certified, total - most_feasible))
        if total > most_feasible else None
    )
    target = 1 - Fraction(1, most_feasible)
    if lower >= target:
        verdict = "holds"
    elif upper is not None and upper < target:
        verdict = "fails"
    else:
        verdict = "undecided"
    return InfeasibleCoverageReport(total, certified, lower, upper, target, verdict)

