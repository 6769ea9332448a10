"""Complex linear algebra on subspaces of C^N under one numeric rank rule.

A subspace has one representation: an N x d complex array with orthonormal
columns.  d = 0 is a first-class value (an N x 0 array) so direct-sum
decompositions with empty parts need no special-casing.  All rank decisions
go through a single threshold rule (rank_threshold) because everything
downstream -- intersections, direct-sum conditions, feasibility
verification -- reduces to numeric rank.

The kernels work on (T, N, d) stacks of T bases at once, one LAPACK call per
step for the whole stack; one basis is a stack of one,
orthonormal_stack(x[None])[0].  A rank decision that needs no vectors takes
the singular values alone (_full_column_rank), so an intersection that its
shape allows to be empty pays for singular vectors only when it is not.  One
array holds bases of one width, so a kernel whose trials disagree on a rank
raises RaggedRank, and split_by_rank reruns such a block one trial at a time.
Three shared policies live here too: is_basis, the one basis test; blocks,
the one block rule of kernels over trials or samples; _complex_gaussian, the
one drawer of complex Gaussian values, rows of one size in one layout.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidInput

__all__ = [
    "RaggedRank",
    "rank_threshold",
    "numeric_rank",
    "split_by_rank",
    "orthonormal_stack",
    "intersect_stack",
    "is_basis",
    "BLOCK_ENTRIES",
    "blocks",
]

_EPS = np.finfo(np.float64).eps
REL_RANK_TOL = 100.0  # multiples of max(m, n) * eps * sigma_max
ABS_RANK_FLOOR = 1e-12  # no singular value at or below this counts, whatever the scale
BLOCK_ENTRIES = 8192  # entries of a blocked kernel's largest temporary per block (128 kB complex)


def rank_threshold(shape: tuple[int, int], sigma_max):
    """Threshold for an m x n matrix of this shape; elementwise over an array of sigma_max.

    A singular value counts toward numeric rank iff it exceeds
    ``max(max(m, n) * eps * sigma_max * REL_RANK_TOL, ABS_RANK_FLOOR)``.
    """
    return np.maximum(max(shape) * _EPS * sigma_max * REL_RANK_TOL, ABS_RANK_FLOOR)


def numeric_rank(singular_values: np.ndarray, shape: tuple[int, int]):
    """Rank of an m x n matrix from its singular values, sorted descending.

    A (T, k) stack of singular values gives an array of T ranks, one per row.
    """
    s = np.asarray(singular_values)
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=np.intp)
    return (s > rank_threshold(shape, s[..., :1])).sum(axis=-1)


def _full_column_rank(stack: np.ndarray) -> np.ndarray:
    """(T,) bools: whether each matrix of a (T, N, m) stack has numeric rank m, from one values-only SVD."""
    return numeric_rank(np.linalg.svd(stack, compute_uv=False), stack.shape[1:]) == stack.shape[2]


def is_basis(stack: np.ndarray) -> np.ndarray:
    """(T,) bools: whether each matrix of a (T, N, m) stack has m = N columns of full numeric rank, in one SVD."""
    t, n, m = stack.shape
    if m != n:  # too few or too many columns for a basis, whatever their rank: no SVD
        return np.zeros(t, dtype=bool)
    return _full_column_rank(stack)


def blocks(total: int, per_item: int, calls: int = 1):
    """Successive slices of range(total), BLOCK_ENTRIES // per_item items each, and at least calls.

    per_item is the number of entries one item adds to the caller's largest
    temporary, and calls the number of stacked kernel calls a block makes.
    A block holds at least one item per call, so no item pays more than one
    call's fixed cost, and its largest temporary at most max(BLOCK_ENTRIES,
    calls * per_item) entries.  A total below 1 raises InvalidInput.
    """
    if total < 1:
        raise InvalidInput(f"need at least one trial or sample, got {total}")
    step = max(1, calls, BLOCK_ENTRIES // max(1, per_item))
    return (slice(start, min(start + step, total)) for start in range(0, total, step))


def _complex_gaussian(rng: np.random.Generator, rows: int, size: int, variance: float) -> np.ndarray:
    """rows rows of size complex Gaussian values of the given variance: a (rows, size) array.

    Row r holds sqrt(variance / 2) * (a + 1j*b), a its size real normals and
    then b its size imaginary ones, from one standard_normal call of 2 rows
    size values, so rows drawn in turn are the rows of one draw.  Callers
    reshape a row, or split it, to their own axes.
    """
    halves = rng.standard_normal(2 * rows * size).reshape(rows, 2, size).swapaxes(1, 2)  # each value's two normals
    out = np.empty((rows, size), dtype=np.complex128)
    np.multiply(halves, np.sqrt(variance / 2), out=out.view(np.float64).reshape(rows, size, 2))  # one scaled pass
    return out


class RaggedRank(Exception):
    """The trials of one stack disagree on a numeric rank; ranks holds each trial's."""

    def __init__(self, ranks: np.ndarray):
        super().__init__(f"trials disagree on a numeric rank: {np.unique(ranks).tolist()}")
        self.ranks = ranks


def _common_rank(ranks: np.ndarray) -> int:
    """The rank all T trials of a (T,) array of ranks share; raises RaggedRank when they disagree."""
    if (ranks != ranks[0]).any():
        raise RaggedRank(ranks)
    return int(ranks[0])


def split_by_rank(run, stacks: list[np.ndarray]):
    """run(stacks) on a block of trials: (T, ...) stacks in, a tuple of (T, ...) arrays out.

    A block whose trials disagree on a rank runs again one trial at a time, so
    every trial sees the shapes, rank rule and LAPACK routine of the T = 1
    case.  The results concatenate in trial order into a tuple of the type run
    returns, so a NamedTuple keeps its type.
    """
    try:
        return run(stacks)
    except RaggedRank:
        pass
    parts = [run([s[t : t + 1] for s in stacks]) for t in range(len(stacks[0]))]
    merged = [np.concatenate(f) for f in zip(*parts)]
    return parts[0]._make(merged) if hasattr(parts[0], "_make") else tuple(merged)


def _check_orthonormal(b: np.ndarray) -> None:
    """Raise unless every basis of the (..., N, d) stack b is finite with orthonormal columns."""
    if b.shape[-1] == 0:  # an N x 0 basis is empty, so finite and orthonormal
        return
    if not np.isfinite(b).all():
        raise InvalidInput("basis contains non-finite entries")
    gram = b.conj().swapaxes(-1, -2) @ b
    if np.any(np.linalg.norm(gram - np.eye(b.shape[-1]), axis=(-2, -1)) > 1e-10):
        raise InvalidInput("basis columns are not orthonormal")


def orthonormal_stack(cols) -> np.ndarray:
    """Orthonormal bases of the column spaces of a (T, N, m) stack, rank-truncated.

    One SVD call.  Each trial's rank follows the rank_threshold rule; raises
    RaggedRank when the trials' ranks differ.
    """
    a = np.asarray(cols, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] < 1:
        raise InvalidInput(f"expected a T x N x m stack with N >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("input contains non-finite entries")
    if a.shape[2] == 0:
        return a
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    basis = u[..., : _common_rank(numeric_rank(s, a.shape[1:]))]
    _check_orthonormal(basis)
    return basis


def intersect_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersections span(A_t) & span(B_t) of two (T, N, d) stacks of orthonormal bases.

    Null vectors (x; y) of [A | -B] satisfy A x = B y; mapping the x-block
    through A yields a spanning set of the intersection, which
    orthonormal_stack turns into a basis: one SVD call each for the whole
    stack.  When dA + dB <= N the intersection can be zero, as it is for
    generic bases, so the singular values of [A | -B] come first: if every
    trial has full column rank the result is (T, N, 0) with no vectors
    computed, and otherwise the steps above run as when dA + dB > N.
    Raises RaggedRank when the trials disagree on a rank.
    """
    if a.shape[:2] != b.shape[:2]:
        raise DimensionMismatch(f"stacks of shape {a.shape} and {b.shape} do not pair up")
    t, n, da = a.shape
    db = b.shape[2]
    if da == 0 or db == 0:
        return np.zeros((t, n, 0), dtype=np.complex128)
    stacked = np.concatenate([a, -b], axis=2, dtype=np.complex128)
    if da + db <= n and _full_column_rank(stacked).all():
        return np.zeros((t, n, 0), dtype=np.complex128)
    # vh must be square to hold the null space; with N >= dA + dB it is square either way, and U stays N x (dA + dB)
    _, s, vh = np.linalg.svd(stacked, full_matrices=n < da + db)
    null = vh[:, _common_rank(numeric_rank(s, (n, da + db))) :].conj().swapaxes(1, 2)  # (T, dA+dB, nullity)
    return orthonormal_stack(a @ null[:, :da])


def _triple_dim(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> int:
    """dim of span(A_t) & span(B_t) & span(C_t), shared by three (T, N, d) stacks; raises RaggedRank."""
    return intersect_stack(intersect_stack(a, b), c).shape[2]
