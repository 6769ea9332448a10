"""Complex linear algebra on subspaces of C^N under one numeric rank rule.

A subspace is stored as an N x d matrix with orthonormal columns; d = 0 is a
first-class value (empty basis) so direct-sum decompositions with empty parts
need no special-casing.  All rank decisions go through a single threshold rule
(rank_threshold) because everything downstream -- intersections, direct-sum
conditions, feasibility verification -- reduces to numeric rank.

The kernels work on (T, N, d) stacks of T bases at once, one LAPACK call per
stack; orthonormal_basis is their T = 1 case.  One array holds bases of one
width, so a kernel whose trials disagree on a rank raises RaggedRank, and
split_by_rank reruns the block split by that rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput

__all__ = [
    "Subspace",
    "RaggedRank",
    "rank_threshold",
    "numeric_rank",
    "split_by_rank",
    "orthonormal_basis",
    "orthonormal_stack",
    "intersect_stack",
    "contains_stack",
    "project_onto_perp",
]

_EPS = np.finfo(np.float64).eps
REL_RANK_TOL = 100.0  # multiples of max(m, n) * eps * sigma_max
ABS_RANK_FLOOR = 1e-12  # no singular value at or below this counts, whatever the scale


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


@dataclass(frozen=True)
class Subspace:
    """A d-dimensional subspace of C^N, represented by an orthonormal basis."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise InvalidInput(f"basis shape {b.shape} does not match N={self.ambient_dim}")
        if b.shape[1] > self.ambient_dim:
            raise InvalidInput("subspace dimension exceeds ambient dimension")
        _check_orthonormal(b)
        object.__setattr__(self, "basis", b)

    @classmethod
    def _of_checked(cls, basis: np.ndarray) -> "Subspace":
        """The subspace of a kernel's T = 1 result, which _check_orthonormal has passed."""
        s = object.__new__(cls)
        object.__setattr__(s, "ambient_dim", basis.shape[0])
        object.__setattr__(s, "basis", basis)
        return s

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))


class RaggedRank(Exception):
    """The trials of one stack disagree on a numeric rank; ranks holds each trial's."""

    def __init__(self, ranks: np.ndarray):
        super().__init__(f"trials disagree on a numeric rank: {np.unique(ranks).tolist()}")
        self.ranks = ranks


def _common_rank(ranks: np.ndarray) -> int:
    if (ranks != ranks[0]).any():
        raise RaggedRank(ranks)
    return int(ranks[0])


def split_by_rank(run, stacks: list[np.ndarray]):
    """run(stacks) on a block of trials: (T, ...) stacks in, a tuple of (T, ...) arrays out.

    A block whose trials disagree on a rank splits by that rank, and each part
    runs again, so every trial sees the shapes, rank rule and LAPACK routine of
    the T = 1 case.  The parts merge back in trial order into a tuple of the
    type run returns, so a NamedTuple keeps its type.
    """
    try:
        return run(stacks)
    except RaggedRank as exc:
        ranks = exc.ranks
    parts = []
    for r in np.unique(ranks):
        idx = np.flatnonzero(ranks == r)
        parts.append((idx, split_by_rank(run, [s[idx] for s in stacks])))
    first = parts[0][1]
    merged = [np.empty((ranks.size, *f.shape[1:]), f.dtype) for f in first]
    for idx, part in parts:
        for out, f in zip(merged, part):
            out[idx] = f
    return first._make(merged) if hasattr(first, "_make") else tuple(merged)


def _check_orthonormal(b: np.ndarray) -> None:
    """Raise unless every basis of the (..., N, d) stack b is finite with orthonormal columns."""
    if not np.isfinite(b).all():
        raise InvalidInput("basis contains non-finite entries")
    gram = b.conj().swapaxes(-1, -2) @ b
    if np.any(np.linalg.norm(gram - np.eye(b.shape[-1]), axis=(-2, -1)) > 1e-10):
        raise InvalidInput("basis columns are not orthonormal")


def orthonormal_stack(cols) -> np.ndarray:
    """Orthonormal bases of the column spaces of a (T, N, m) stack, rank-truncated.

    Each trial's rank follows the rank_threshold rule; raises RaggedRank when
    the trials' ranks differ.
    """
    a = np.asarray(cols, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] < 1:
        raise InvalidInput(f"expected a T x N x m stack with N >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("input contains non-finite entries")
    if a.shape[2] == 0:
        return a
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    u = u[..., : _common_rank(numeric_rank(s, a.shape[1:]))]
    _check_orthonormal(u)
    return u


def orthonormal_basis(cols) -> Subspace:
    """Orthonormal basis of the column space, with numeric rank truncation."""
    a = np.asarray(cols, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1:
        raise InvalidInput(f"expected an N x m matrix with N >= 1, got shape {a.shape}")
    return Subspace._of_checked(orthonormal_stack(a[None])[0])


def intersect_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersections span(A_t) & span(B_t) of two (T, N, d) stacks of orthonormal bases.

    Null vectors (x; y) of [A | -B] satisfy A x = B y; mapping the x-block
    through A yields a spanning set of the intersection.  Raises RaggedRank
    when the trials disagree on a rank.
    """
    if a.shape[:2] != b.shape[:2]:
        raise DimensionMismatch(f"stacks of shape {a.shape} and {b.shape} do not pair up")
    t, n, da = a.shape
    if da == 0 or b.shape[2] == 0:
        return np.zeros((t, n, 0), dtype=np.complex128)
    stacked = np.concatenate([a, -b], axis=2)
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    r = _common_rank(numeric_rank(s, stacked.shape[1:]))
    null = vh[:, r:].conj().swapaxes(1, 2)  # (T, dA+dB, nullity)
    return orthonormal_stack(a @ null[:, :da])


def contains_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per trial, whether span(B_t) lies in span(A_t), for stacks of orthonormal bases.

    B_t counts as contained when its residual off span(A_t) has Frobenius norm
    below the absolute 1e-9, a threshold outside the rank rule.
    """
    if b.shape[2] == 0:
        return np.ones(b.shape[0], dtype=bool)
    resid = b - (a @ a.conj().swapaxes(1, 2)) @ b
    return np.linalg.norm(resid, axis=(1, 2)) < 1e-9


def project_onto_perp(x, s: Subspace) -> np.ndarray:
    """Orthogonal projection of the columns of x onto the complement of s."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] != s.ambient_dim:
        raise DimensionMismatch(f"x has {x.shape[0]} rows, ambient dim is {s.ambient_dim}")
    if s.d == 0:
        return x.copy()
    return x - s.basis @ (s.basis.conj().T @ x)
