"""Exact lattice reduction: integer-arithmetic LLL.

The LLL implementation keeps the Gram-Schmidt data in the classical
all-integer form (Gram determinants d_i and scaled coefficients
lambda_ij = mu_ij * d_{j+1}), so no floating point is involved anywhere
and results are reproducible bit for bit.
"""

from __future__ import annotations


# The Lovasz condition of every reduction, delta = 3/4 (1/4 < delta < 1),
# as numerator and denominator
LOVASZ_DELTA = (3, 4)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """LLL-reduced basis of the lattice spanned by the input rows.

    The output spans the same lattice, is size-reduced (|mu_ij| <= 1/2) and
    satisfies the Lovasz condition for LOVASZ_DELTA.  Raises ValueError
    on dependent input rows.
    """
    b = [[int(x) for x in row] for row in basis]
    n = len(b)
    if n == 0:
        return []
    width = len(b[0])
    if any(len(row) != width for row in b) or n > width:
        raise ValueError("basis shape is not r <= n row vectors of equal length")
    nd, dd = LOVASZ_DELTA

    d = [0] * (n + 1)
    d[0] = 1
    lam = [[0] * n for _ in range(n)]

    def init_row(k):
        for j in range(k + 1):
            u = _dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                if u <= 0:
                    raise ValueError("dependent basis vectors")
                d[k + 1] = u

    def red(k, l):
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        if q == 0:
            return
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_ = lam[k][k - 1]
        bk = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
            lam[i][k - 1] = (bk * t + lam_ * lam[i][k]) // d[k + 1]
        d[k] = bk

    init_row(0)
    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            init_row(k)
        red(k, k - 1)
        if dd * d[k + 1] * d[k - 1] < nd * d[k] * d[k] - dd * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b

