"""Exact rank over Q(i) of a Gaussian-integer matrix, the oracle for the program's rank-rule verdicts.

A complex m x n matrix A = X + iY has rank r over C iff its real embedding
[[X, -Y], [Y, X]] has rank 2r over R; with integer X and Y that rank is
exact by Gaussian elimination in Fractions.
"""

from fractions import Fraction

import numpy as np


def exact_rank(a: np.ndarray) -> int:
    """The rank over C of a, whose real and imaginary parts must be integers."""
    x, y = np.real(a), np.imag(a)
    if not (np.array_equal(x, np.round(x)) and np.array_equal(y, np.round(y))):
        raise ValueError("exact_rank takes Gaussian-integer entries only")
    rows = [[Fraction(int(v)) for v in row] for row in np.block([[x, -y], [y, x]])]
    rank = 0
    for col in range(2 * a.shape[1]):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank // 2
