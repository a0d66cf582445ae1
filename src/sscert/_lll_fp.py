"""Float-guided LLL kernel for the truncated levels of ``lll.lll_reduce``.

The basis, the transform U and its inverse stay exact integers; only the
Gram-Schmidt data mu_kj and c_k = |b*_k|^2 are doubles (Schnorr &
Euchner, "Lattice basis reduction", Math. Programming 66, 1994). Row k
is recomputed from float copies of the exact columns each time the loop
reaches k; a float dot product that cancels is replaced by the exact
integer one (Schnorr-Euchner), and a level whose entries exceed 2^480
is scaled by one power of two, each entry converted through its own
shift so that no int above 2^1024 meets ``float``. Columns whose sizes
differ by more than the range of a double leave a pivot that underflows,
and the level is refused.

The control flow is the exact kernel's (``_lll_py.lll_reduce_ints``),
step for step: size-reduce k against k-1, test Lovasz at 3/4, then swap
or size-reduce against k-2, ..., 0; reduce only when |mu| > 1/2,
rounding ties toward zero; one count per (k, j) event. Every double
carries a running error bound (Higham, "Accuracy and Stability of
Numerical Algorithms", 2nd ed., section 3.3), and each rounding and
Lovasz decision gets one attempt: it is taken only when no value inside
the bound would decide otherwise, so each step, and the result, is the
exact kernel's.

The kernel refuses the level (returns None) on a decision inside its
error bound, a non-positive pivot (which includes dependent columns),
an overflow, or a spent step budget; the caller then runs the exact
kernel on the level. No Frank-Tardos level up to n = 16 has been seen
to reach a decision inside the bound; every truncated level of
``lll_rows`` measured at n = 6-32 is refused at a Lovasz decision, and
entries of very different sizes can be refused too.
"""

from math import ldexp, sqrt
from operator import mul

# twice the unit roundoff of a double, so the bounds also cover their own rounding
UNIT = 2.0**-52
# an absolute term in every bound, above what underflow to subnormals can lose
TINY = 2.0**-1000
# float copies are scaled to entries of at most 2^TARGET_BITS
TARGET_BITS = 480
# a float dot product below this share of the norms' product is redone exactly
CANCELS = 2.0**-26


class _Refused(Exception):
    """The doubles cannot take the exact kernel's next step."""


def _scaled(x, shift):
    """float(x * 2^-shift), through a shift of x so that float() cannot overflow."""
    t = x.bit_length() - 64
    if t > 0:
        return ldexp(float(x >> t), t - shift)
    return ldexp(float(x), -shift)


def lll_reduce_fp(cols):
    """Reduce integer columns as ``_lll_py.lll_reduce_ints`` would, or refuse.

    Returns ``(b, u, uinv, swaps, reductions)``, the same values the
    exact kernel returns for them, or None when the level is refused.
    """
    try:
        return _reduce(cols)
    except (_Refused, OverflowError, ValueError):  # ValueError: round() of a NaN
        return None


def _reduce(cols):
    d = len(cols)
    m = len(cols[0])
    bits = max(abs(x).bit_length() for col in cols for x in col)
    shift = max(0, bits - TARGET_BITS)
    scale = ldexp(1.0, -shift)
    dot_err = (m + 3) * UNIT
    b = [list(c) for c in cols]
    u = [[1 if r == j else 0 for r in range(d)] for j in range(d)]
    uinv = [[1 if c == i else 0 for c in range(d)] for i in range(d)]
    # float copies of the columns times 2^-shift, their squared norms and norms
    f, sq, nrm = [None] * d, [0.0] * d, [0.0] * d
    # row k: mu[k][j] for j < k and its bounds dmu[k][j]; c[k] = |b*_k|^2, bound dc[k]
    mu, dmu, c, dc = [None] * d, [None] * d, [0.0] * d, [0.0] * d
    # what later rows read of a settled row j: (|mu_ji| + dmu_ji, dmu_ji + gamma_j
    # (|mu_ji| + dmu_ji)) interleaved, and the weights of a quotient's bound
    mw, lo, hi = [None] * d, [0.0] * d, [0.0] * d

    def load(k):
        try:
            fv = [float(x) * scale for x in b[k]]
        except OverflowError:
            fv = [_scaled(x, shift) for x in b[k]]
        f[k] = fv
        sq[k] = sqv = sum(map(mul, fv, fv))
        nrm[k] = sqrt(sqv)

    def row(k):
        # mu_vj for j < k and |v*|^2 of v = b_k, with running error bounds, where
        # v* is v's part orthogonal to b_0..b_{k-1}: r_vj = <v, b_j> - sum_i mu_ji r_vi,
        # mu_vj = r_vj / c_j
        v, fv, sqv, nv = b[k], f[k], sq[k], nrm[k]
        gamma = (k + 2) * UNIT
        r, drs, muv, dmuv = [], [], [], []
        cv, dcv = sqv, dot_err * sqv + TINY
        for j in range(k):
            g = sum(map(mul, fv, f[j]))
            size = nv * nrm[j]
            if abs(g) < CANCELS * size:
                g = _scaled(sum(map(mul, v, b[j])), 2 * shift)
                eg = UNIT * abs(g) + TINY
            else:
                eg = dot_err * size + TINY
            if j:
                x = g - sum(map(mul, mu[j], r))
                ax = abs(x)
                ex = eg + sum(map(mul, mw[j], drs)) + UNIT * ax
            else:
                x, ex = g, eg
                ax = abs(x)
            r.append(x)
            drs += (ex, ax)
            y = x / c[j]
            ay = abs(y)
            e = ex * lo[j] + ay * hi[j] + TINY
            muv.append(y)
            dmuv.append(e)
            # the terms of |v*|^2 = |v|^2 - sum_j mu_vj r_vj and of its bound
            cv -= y * x
            a = ay + e
            dcv += a * ex + (e + gamma * a) * ax
        dcv += gamma * (abs(cv) + sqv)  # the subtractions, each below |v|^2 + |v*|^2
        mu[k], dmu[k], c[k], dc[k] = muv, dmuv, cv, dcv

    def settle(k):
        # the pivot, and what later rows read of row k
        ck, dck = c[k], dc[k]
        if not ck - dck > 0:
            raise _Refused("pivot")  # a non-positive pivot, or one the bound cannot tell from 0
        gamma = (k + 2) * UNIT
        mwk = mw[k] = []
        for y, e in zip(mu[k], dmu[k]):
            a = abs(y) + e
            mwk += (a, e + gamma * a)
        # |r/c - r'/c'| <= (|r - r'| + |r'/c'| |c - c'|) / (c' - |c - c'|), plus a rounding
        lo[k] = 1 / (ck - dck)
        hi[k] = dck * lo[k] + UNIT

    def move(k, j, q):
        # b_k -= q b_j, mirrored on U and U^-1
        bj, uj = b[j], u[j]
        b[k] = [x - q * y for x, y in zip(b[k], bj)]
        u[k] = [x - q * y for x, y in zip(u[k], uj)]
        uinv[j] = [x + q * y for x, y in zip(uinv[j], uinv[k])]

    def size_reduce(k, j):
        # the exact kernel's _size_reduce(k, j); True if b_k moved
        x = mu[k][j]
        e = 2 * dmu[k][j]
        if abs(x) + e < 0.5:
            return False
        q = round(x)
        if not 0.5 - abs(x - q) > e:
            raise _Refused("rounding")  # a half-integer lies within the bound
        # q is the exact rounding, and not 0: |mu| is above 1/2
        move(k, j, q)
        muk, dmuk, muj, dmuj = mu[k], dmu[k], mu[j], dmu[j]
        aq = abs(q)
        for i in range(j):
            y = muk[i] - q * muj[i]
            muk[i] = y
            dmuk[i] += aq * (dmuj[i] + UNIT * abs(muj[i])) + UNIT * abs(y)
        y = x - q
        muk[j] = y
        dmuk[j] += UNIT * abs(y)
        return True

    def lovasz_fails(k):
        x, e = mu[k][k - 1], dmu[k][k - 1]
        cp, dcp = c[k - 1], dc[k - 1]
        t = 0.75 - x * x
        rhs = t * cp
        erhs = (2 * abs(x) + e) * e * (cp + dcp) + abs(t) * dcp + UNIT * (abs(rhs) + cp)
        diff = c[k] - rhs
        if not abs(diff) > 2 * (dc[k] + erhs + UNIT * abs(c[k])):
            raise _Refused("lovasz")  # 4 c_k = (3 - 4 mu^2) c_{k-1} within the bound
        return diff < 0

    for k in range(d):
        load(k)
    row(0)
    settle(0)
    # LLL makes at most log_{4/3} of the product of the Gram determinants swaps
    budget = d + 5 * d * d * (bits + m.bit_length())
    swaps = reductions = 0
    k = 1
    fresh = True  # row k is to be computed
    while k < d:
        budget -= 1
        if budget < 0:
            raise _Refused("budget")
        if fresh:
            row(k)
        moved = size_reduce(k, k - 1)
        if moved:
            reductions += 1
        if lovasz_fails(k):
            swaps += 1
            if moved:
                load(k)
            for vec in (b, u, uinv, f, sq, nrm):
                vec[k - 1], vec[k] = vec[k], vec[k - 1]
            if k > 1:
                # the new b_{k-1} keeps its row below k - 1, and its pivot is
                # c_k + mu^2 c_{k-1}
                x, e = mu[k][k - 1], dmu[k][k - 1]
                cp, dcp = c[k - 1], dc[k - 1]
                cn = c[k] + x * x * cp
                mu[k - 1], dmu[k - 1] = mu[k][:-1], dmu[k][:-1]
                c[k - 1] = cn
                dc[k - 1] = (
                    dc[k] + (2 * abs(x) + e) * e * (cp + dcp) + x * x * dcp
                    + UNIT * (abs(c[k]) + 2 * x * x * cp)
                )
                k -= 1
                fresh = False
            else:
                row(0)
                settle(0)
                fresh = True
        else:
            for j in range(k - 2, -1, -1):
                if size_reduce(k, j):
                    reductions += 1
                    moved = True
            if moved:
                load(k)
                row(k)
            settle(k)
            k += 1
            fresh = True
    return b, u, uinv, swaps, reductions
