"""Exact linear-algebra helpers shared by the lattice tests."""

from fractions import Fraction


def gram_schmidt(basis: list[list[int]]):
    """Exact rational Gram-Schmidt: (orthogonal vectors, mu coefficients)."""
    n = len(basis)
    bstar = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            denom = _dot(bstar[j], bstar[j])
            if denom == 0:
                raise ValueError("dependent basis vectors")
            mu[i][j] = _dot(v, bstar[j]) / denom
            v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
        bstar.append(v)
    return bstar, mu


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def det_fraction(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        k = next((i for i in range(col, n) if m[i][col] != 0), None)
        if k is None:
            return Fraction(0)
        if k != col:
            m[col], m[k] = m[k], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def change_of_basis(original, reduced):
    """Rows T with reduced = T * original over Q, or None if unsolvable."""
    n = len(original)
    t_rows = []
    for vec in reduced:
        aug = [[Fraction(original[r][c]) for r in range(n)] + [Fraction(vec[c])]
               for c in range(len(vec))]
        rows = len(aug)
        piv = 0
        pivots = []
        for col in range(n):
            k = next((i for i in range(piv, rows) if aug[i][col] != 0), None)
            if k is None:
                continue
            aug[piv], aug[k] = aug[k], aug[piv]
            inv = 1 / aug[piv][col]
            aug[piv] = [x * inv for x in aug[piv]]
            for i in range(rows):
                if i != piv and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[piv])]
            pivots.append(col)
            piv += 1
        coords = [Fraction(0)] * n
        for i, col in enumerate(pivots):
            coords[col] = aug[i][n]
        for i in range(piv, rows):
            if aug[i][n] != 0:
                return None
        t_rows.append(coords)
    return t_rows
