"""Independent brute-force oracles used to validate the package.

Everything here is deliberately naive (enumeration, elimination) and
shares no code with the implementation under test.
"""

import heapq
from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby, product
from math import ceil, floor


def box_min_norm_sq(cols, coeff_bound):
    """Shortest nonzero vector norm^2 over coefficients in [-c, c]^d."""
    best = None
    d = len(cols)
    m = len(cols[0])
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=d):
        if all(c == 0 for c in coeffs):
            continue
        vec = [sum(coeffs[j] * cols[j][t] for j in range(d)) for t in range(m)]
        nsq = sum(x * x for x in vec)
        if best is None or nsq < best:
            best = nsq
    return best


def gso(cols):
    """Exact Gram-Schmidt data: mu (d x d, mu[i][j] for j < i) and squared norms."""
    d = len(cols)
    ortho = []
    norms = []
    mu = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        vec = [Fraction(x) for x in cols[i]]
        for j in range(i):
            coeff = sum(a * b for a, b in zip(cols[i], ortho[j])) / norms[j]
            mu[i][j] = coeff
            vec = [x - coeff * y for x, y in zip(vec, ortho[j])]
        nsq = sum(x * x for x in vec)
        assert nsq > 0, "oracle needs independent columns"
        ortho.append(vec)
        norms.append(nsq)
    return mu, norms


def is_reduced(cols):
    """Size reduction and the Lovasz condition at delta = 3/4."""
    mu, norms = gso(cols)
    d = len(cols)
    if any(abs(mu[i][j]) > Fraction(1, 2) for i in range(d) for j in range(i)):
        return False
    delta = Fraction(3, 4)
    return all(norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1] for i in range(1, d))


def svp_min_norm_sq(cols):
    """Exact shortest nonzero lattice vector norm^2 (Fincke-Pohst).

    Depth-first enumeration over coefficients with exact rational
    bounds from the Gram-Schmidt data of the input basis. Candidates
    at each level are visited from the interval center outward, so the
    current best shrinks early and prunes the rest.
    """
    d = len(cols)
    mu, norms = gso(cols)
    best = min(sum(x * x for x in col) for col in cols)
    coeffs = [0] * d

    def recurse(level, partial):
        nonlocal best
        if level < 0:
            if any(coeffs) and partial < best:
                best = partial
            return
        center = -sum(coeffs[j] * mu[j][level] for j in range(level + 1, d))
        norm = norms[level]
        # walk away from the center in each direction; terms increase
        # monotonically and the budget only shrinks as best improves,
        # so stopping at the first failure is sound in each direction
        x = ceil(center)
        while (x - center) ** 2 * norm <= Fraction(best) - partial:
            coeffs[level] = x
            recurse(level - 1, partial + (x - center) ** 2 * norm)
            x += 1
        x = ceil(center) - 1
        while (center - x) ** 2 * norm <= Fraction(best) - partial:
            coeffs[level] = x
            recurse(level - 1, partial + (center - x) ** 2 * norm)
            x -= 1
        coeffs[level] = 0

    recurse(d - 1, Fraction(0))
    return best


def gram_det(cols):
    """det(B^T B) by exact fraction elimination."""
    d = len(cols)
    gram = [
        [Fraction(sum(x * y for x, y in zip(cols[i], cols[j]))) for j in range(d)]
        for i in range(d)
    ]
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if gram[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            gram[col], gram[pivot] = gram[pivot], gram[col]
            det = -det
        det *= gram[col][col]
        inv = 1 / gram[col][col]
        for r in range(col + 1, d):
            factor = gram[r][col] * inv
            if factor:
                gram[r] = [a - factor * b for a, b in zip(gram[r], gram[col])]
    return det


def invert_matrix(rows):
    """Exact inverse of a square matrix, as Fraction rows."""
    d = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(d)]
            for i, row in enumerate(rows)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(d):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [tuple(row[d:]) for row in work]


def lp_eq_vertex(a, v, beta, sense):
    """Optimum of v.x over {a.x = beta, 0 <= x <= e} by vertex enumeration.

    Every vertex has at most one fractional coordinate; enumerate all
    subsets at one plus an optional fractional index. Returns None when
    the relaxation is empty.
    """
    n = len(a)
    values = []
    for mask in range(1 << n):
        ones = [i for i in range(n) if (mask >> i) & 1]
        weight = sum(a[i] for i in ones)
        val = sum(v[i] for i in ones)
        if weight == beta:
            values.append(Fraction(val))
        for f in range(n):
            if (mask >> f) & 1:
                continue
            frac = Fraction(beta - weight, a[f])
            if 0 < frac < 1:
                values.append(val + v[f] * frac)
    if not values:
        return None
    return min(values) if sense == "min" else max(values)


def lp_eq_greedy(a, v, beta, sense):
    """Optimum of v.x over {a.x = beta, 0 <= x <= e} and its vertex, by greedy fill.

    The fill that the certifier's bisection of prefix sums must equal:
    take the items by v_i/a_i (ascending for min, descending for max,
    ties to the smaller index), each whole while it fits the budget
    beta, then the part of the next one that fits. Assumes
    0 <= beta <= sum(a).
    """
    sign = 1 if sense == "min" else -1
    order = sorted(range(len(a)), key=lambda i: (sign * Fraction(v[i], a[i]), i))
    x = [Fraction(0)] * len(a)
    value = Fraction(0)
    budget = beta
    for i in order:
        take = min(Fraction(1), Fraction(budget, a[i]))
        if take == 0:
            break
        x[i] = take
        value += v[i] * take
        budget -= a[i] * take
    return value, tuple(x)


def lp_ineq_greedy(a, v, level, sense):
    """max{a.x | v.x <= level} / min{a.x | v.x >= level} over the box, by greedy fill.

    Sorts by Fraction ratios v_i/a_i: the max side takes the least v per
    unit of a first (v_i = 0 free), each item whole while its v fits the
    budget level, then the part that fits; the min side takes the most v
    per unit of a first until v.x reaches level. Assumes level >= 0 on
    the max side and level <= sum(v) on the min side.
    """
    sign = 1 if sense == "max" else -1
    order = sorted(range(len(a)), key=lambda i: sign * Fraction(v[i], a[i]))
    value = Fraction(0)
    budget = Fraction(level)
    for i in order:
        if sense == "min" and budget <= 0:
            break
        take = min(Fraction(1), budget / v[i]) if v[i] else Fraction(1)
        value += a[i] * take
        budget -= v[i] * take
    return value


def greedy_fill_pair(a, v, level, sense):
    """lp_ineq_greedy's value as the unreduced integer pair (num, den) of a fill.

    Walks the ascending v_i/a_i order of ``greedy_order_cmp`` one item at
    a time: each item whole while its v fits the budget, then the part of
    the next one that fits, so the max side is an integer plus one
    fraction a_i rest / v_i, returned as (A v_i + a_i rest, v_i), or
    (A, 1) when nothing is split. The min side is the complement
    ||a||_1 - max{a.y | v.y <= ||v||_1 - level} over the same den. Assumes
    level >= 0 on the max side and level <= sum(v) on the min side.
    """
    order = greedy_order_cmp(v, a, "min")

    def fill(budget):
        value = 0
        for i in order:
            if v[i] > budget:
                if budget:
                    return value * v[i] + a[i] * budget, v[i]
                break
            value += a[i]
            budget -= v[i]
        return value, 1

    if sense == "max":
        return fill(level)
    num, den = fill(sum(v) - level)
    return sum(a) * den - num, den


def greedy_order_cmp(num, den, sense):
    """Indices by num_i/den_i: ascending for min, descending for max.

    Each pair is compared by cross-multiplying, with no division and no
    key; ties go to the smaller index in both senses.
    """
    want_min = sense == "min"

    def compare(i, j):
        diff = num[i] * den[j] - num[j] * den[i]
        if diff != 0:
            return -1 if (diff < 0) == want_min else 1
        return -1 if i < j else 1

    return sorted(range(len(num)), key=cmp_to_key(compare))


def lp_ineq_vertex(a, v, level, sense):
    """max{a.x | v.x <= level} / min{a.x | v.x >= level} over the box, v >= 0.

    Every vertex is a 0/1 point on the right side of level, or a 0/1
    point plus one coordinate f split so that v.x = level, which both
    sides share. Returns None when the LP is empty.
    """
    n = len(a)
    sums = [(0, 0)]  # (v.x, a.x) of the 0/1 point of each mask
    for i in range(n):
        sums += [(vsum + v[i], asum + a[i]) for vsum, asum in sums]
    values = []
    for mask, (vsum, asum) in enumerate(sums):
        if (vsum <= level) if sense == "max" else (vsum >= level):
            values.append(asum)
        gap = level - vsum  # a split item f takes gap / v[f], in (0, 1)
        if gap > 0:
            values += [
                asum + a[f] * Fraction(gap, v[f])
                for f in range(n) if gap < v[f] and not (mask >> f) & 1
            ]
    if not values:
        return None
    return Fraction(max(values) if sense == "max" else min(values))


def certificate_bounds_hold(level, vmin, vmax):
    """level < vmin <= vmax < level + 1, as one chain of Fraction comparisons."""
    return Fraction(level) < Fraction(vmin) <= Fraction(vmax) < Fraction(level) + 1


def subset_feasible_naive(a, beta):
    """Subset sum decision by full 0/1 enumeration."""
    for x in product((0, 1), repeat=len(a)):
        if sum(ai * xi for ai, xi in zip(a, x)) == beta:
            return True
    return False


def all_feasible_sums(a):
    """Subset-sum value set by doubling a set of sums, n <= 24."""
    if len(a) > 24:
        raise ValueError("sum enumeration capped at n = 24")
    sums = {0}
    for w in a:
        sums |= {s + w for s in sums}
    return frozenset(sums)


def count_feasible_sums(a):
    """Size of the subset-sum value set, holding only its two halves' sums.

    The shifts l + R of the right half's sorted sums R, one per left sum
    l, merge into the whole set in ascending order, so memory grows as
    2^(n/2), not 2^n.
    """
    half = len(a) // 2
    right = sorted(all_feasible_sums(a[half:]))
    shifts = (map(left.__add__, right) for left in all_feasible_sums(a[:half]))
    return sum(1 for _ in groupby(heapq.merge(*shifts)))


def count_integers_in_bad(cover):
    """Number of integers inside the closed bad intervals of an IntervalCover."""
    total = 0
    for lo, hi in cover.bad:
        count = floor(hi) - ceil(lo) + 1
        if count > 0:
            total += count
    return total


def infeasible_coverage_brute(a, v):
    """(infeasible, certified infeasible) counts by a loop over every beta.

    A beta is infeasible when no 0/1 point attains it, and certified
    when its LP range [vmin, vmax] of v.x holds no integer.
    """
    sums = {sum(ai * xi for ai, xi in zip(a, x)) for x in product((0, 1), repeat=len(a))}
    infeasible = certified = 0
    for beta in range(sum(a) + 1):
        if beta in sums:
            continue
        infeasible += 1
        if floor(lp_eq_vertex(a, v, beta, "max")) < lp_eq_vertex(a, v, beta, "min"):
            certified += 1
    return infeasible, certified


def validate_weights_gen(a):
    """The weight check as one generator over the entries.

    ValueError with the package's message where the package raises
    DomainError.
    """
    weights = tuple(a)
    if not weights or any(not isinstance(x, int) or x < 1 for x in weights):
        raise ValueError("weights must be integers >= 1")
    return weights


def validate_direction_gen(v, n):
    """The direction check as one generator over the entries.

    ValueError with the package's message where the package raises
    DomainError; an empty v reaches max() and raises its ValueError.
    """
    v = tuple(v)
    if len(v) != n:
        raise ValueError("direction length differs from weight length")
    if any(not isinstance(x, int) or x < 0 for x in v):
        raise ValueError("direction must be a nonnegative integer vector")
    if max(v) == 0:
        raise ValueError("direction must be nonzero")
    return v


def fed_reduce_exact(cols, reduce_ints, step=64):
    """The fed LLL reduction with every level in the exact kernel ``reduce_ints``.

    The levels truncate each entry x to sign(x) * (|x| >> s), a nonzero
    entry kept as +-1, for s from the top bit length down to 0 in steps
    of ``step``; each is reduced times the transform so far, and a level
    the kernel finds dependent (ValueError) is skipped. Returns
    ``(levels, b, U, U_inv, swaps, reductions)``: the level inputs, the
    last pass's basis, U and U^-1 as lists of rows, and the summed counts.
    """
    d = len(cols)
    u = [[int(i == j) for j in range(d)] for i in range(d)]  # rows
    uinv = [row[:] for row in u]
    swaps = reductions = 0
    levels = []

    def mat(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(len(y))) for j in range(len(y[0]))]
                for i in range(len(x))]

    top = max(abs(x).bit_length() for col in cols for x in col)
    for shift in [*range(top - step, 0, -step), 0]:
        trunc = [[(-1 if x < 0 else 1) * ((abs(x) >> shift) or (1 if x else 0)) for x in col]
                 for col in cols]
        # columns of trunc . U
        level = [list(col) for col in zip(*mat([list(r) for r in zip(*trunc)], u))]
        levels.append(level)
        try:
            b, lu, luinv, _, _, s, r = reduce_ints(level)
        except ValueError:
            if shift == 0:
                raise
            continue
        u = mat(u, [list(r) for r in zip(*lu)])
        uinv = mat(luinv, uinv)
        swaps += s
        reductions += r
    return levels, b, u, uinv, swaps, reductions
