"""Pure Python LLL kernel over exact integers.

All-integer variant of LLL reduction (Cohen, "A Course in Computational
Algebraic Number Theory", Algorithm 2.6.3/2.6.7; de Weger): instead of
rational Gram-Schmidt data it maintains

    dvec[i]   = det of the Gram matrix of the first i columns (dvec[0] = 1)
    lam[i][j] = dvec[j+1] * mu_ij   for j < i

so every division below is exact. The unimodular transform U and its
inverse are updated incrementally: a column operation on the basis is
mirrored on U, and the inverse row operation is applied to U^-1. The
Lovasz constant is fixed at 3/4 in the swap test.
"""

KERNEL_NAME = "python"


def _round_nearest(num, den):
    # nearest integer to num/den with den > 0, ties toward zero
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den:
        return q + 1
    if twice < den:
        return q
    return q + 1 if q < 0 else q


def _size_reduce(b, u, uinv, lam, dvec, i, j):
    # make |mu_ij| <= 1/2, i.e. 2*|lam[i][j]| <= dvec[j+1]
    lij = lam[i][j]
    dj = dvec[j + 1]
    if 2 * abs(lij) <= dj:
        return False
    q = _round_nearest(lij, dj)
    bi, bj = b[i], b[j]
    for t in range(len(bi)):
        bi[t] -= q * bj[t]
    ui, uj = u[i], u[j]
    for t in range(len(ui)):
        ui[t] -= q * uj[t]
    ri, rj = uinv[i], uinv[j]
    for t in range(len(rj)):
        rj[t] += q * ri[t]
    li, lj = lam[i], lam[j]
    for t in range(j):
        li[t] -= q * lj[t]
    li[j] = lij - q * dj
    return True


def lll_reduce_ints(cols):
    """Reduce integer columns in place of a copy; returns all state.

    Returns ``(b, u, uinv, lam, dvec, swaps, reductions)`` where ``b``
    is the reduced basis (list of columns), ``u`` the unimodular
    transform (list of columns, reduced = input . U), ``uinv`` its
    inverse (list of rows), and ``lam``/``dvec`` the scaled Gram data
    of the reduced basis.

    Raises ValueError when the columns are linearly dependent.
    """
    d = len(cols)
    b = [list(c) for c in cols]
    u = [[1 if r == j else 0 for r in range(d)] for j in range(d)]
    uinv = [[1 if c == i else 0 for c in range(d)] for i in range(d)]
    lam = [[0] * i for i in range(d)]
    dvec = [0] * (d + 1)
    dvec[0] = 1

    for i in range(d):
        bi = b[i]
        for j in range(i + 1):
            bj = b[j]
            acc = 0
            for t in range(len(bi)):
                acc += bi[t] * bj[t]
            for t in range(j):
                acc = (dvec[t + 1] * acc - lam[i][t] * lam[j][t]) // dvec[t]
            if j < i:
                lam[i][j] = acc
            elif acc <= 0:
                raise ValueError("columns are linearly dependent")
            else:
                dvec[i + 1] = acc

    swaps = 0
    reductions = 0
    k = 1
    while k < d:
        if _size_reduce(b, u, uinv, lam, dvec, k, k - 1):
            reductions += 1
        lkk = lam[k][k - 1]
        if 4 * (dvec[k + 1] * dvec[k - 1] + lkk * lkk) < 3 * dvec[k] * dvec[k]:
            # Lovasz condition fails at the lowest unsettled index: swap
            swaps += 1
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            uinv[k - 1], uinv[k] = uinv[k], uinv[k - 1]
            lk, lk1 = lam[k], lam[k - 1]
            for j in range(k - 1):
                lk[j], lk1[j] = lk1[j], lk[j]
            coupling = lk[k - 1]
            dnew = (dvec[k - 1] * dvec[k + 1] + coupling * coupling) // dvec[k]
            for r in range(k + 1, d):
                lr = lam[r]
                t = lr[k]
                lr[k] = (dvec[k + 1] * lr[k - 1] - coupling * t) // dvec[k]
                lr[k - 1] = (dnew * t + coupling * lr[k]) // dvec[k + 1]
            dvec[k] = dnew
            if k > 1:
                k -= 1
        else:
            for j in range(k - 2, -1, -1):
                if _size_reduce(b, u, uinv, lam, dvec, k, j):
                    reductions += 1
            k += 1

    return b, u, uinv, lam, dvec, swaps, reductions
