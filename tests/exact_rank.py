"""Exact rank and null space over Q(i) of a Gaussian-integer matrix, the oracle for the program's rank-rule verdicts.

A complex m x n matrix A = X + iY has rank r over C iff its real embedding
[[X, -Y], [Y, X]] has rank 2r over R; with integer X and Y that rank is
exact by Gauss-Jordan elimination in Fractions.  The embedding maps u + iv
to (u; v), so its null space is that of A, closed under (u; v) -> (-v; u),
the embedding of multiplication by i.
"""

from fractions import Fraction
from math import lcm

import numpy as np


def _real_rows(a: np.ndarray) -> list[list[Fraction]]:
    """The rows of a's real embedding, in Fractions; a's real and imaginary parts must be integers."""
    x, y = np.real(a), np.imag(a)
    if not (np.array_equal(x, np.round(x)) and np.array_equal(y, np.round(y))):
        raise ValueError("the exact oracle takes Gaussian-integer entries only")
    return [[Fraction(int(v)) for v in row] for row in np.block([[x, -y], [y, x]])]


def _reduce(rows: list[list[Fraction]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form of rows, each of width entries: its nonzero rows and their pivot columns."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(width):
        pivot = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        top = len(pivots)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [v / rows[top][col] for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def exact_rank(a: np.ndarray) -> int:
    """The rank over C of a, whose real and imaginary parts must be integers."""
    return len(_reduce(_real_rows(a), 2 * a.shape[1])[1]) // 2


def exact_null_space(a: np.ndarray) -> np.ndarray:
    """A basis over C of the null space of a, an n x k array of Gaussian integers, k = n - exact_rank(a).

    The real embedding's null space has a basis with one free column set to 1
    for each free column; a real null vector (u; v) adds the complex vector
    u + iv to the basis when it is outside the real span of those kept and
    their multiples by i.  Each kept vector is scaled to integers by its
    denominators' least common multiple, a real factor.
    """
    n = a.shape[1]
    rows, pivots = _reduce(_real_rows(a), 2 * n)
    kept: list[list[Fraction]] = []  # the real embedding of the span of the basis so far, two vectors per column
    basis = []
    for free in (c for c in range(2 * n) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(2 * n)]
        for row, p in zip(rows, pivots):
            v[p] = -row[free]
        if len(_reduce(kept + [v], 2 * n)[1]) == len(kept):
            continue
        kept += [v, [-w for w in v[n:]] + v[:n]]
        scale = lcm(*(w.denominator for w in v))
        basis.append([complex(int(re * scale), int(im * scale)) for re, im in zip(v[:n], v[n:])])
    out = np.array(basis, dtype=np.complex128).T.reshape(n, len(basis))
    if np.abs(out).max(initial=0) >= 2**52:
        raise ValueError("exact_null_space: an entry is too large for float64 to hold exactly")
    return out
