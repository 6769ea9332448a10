"""Tolerance-aware complex linear algebra on subspaces of C^N.

A subspace is stored as an N x d matrix with orthonormal columns; d = 0 is a
first-class value (empty basis) so direct-sum decompositions with empty parts
need no special-casing.  All rank decisions go through a single threshold rule
(see Tolerance) because everything downstream -- intersections, direct-sum
tests, feasibility verification -- reduces to numeric rank.

The kernels work on (T, N, d) stacks of T bases at once, one LAPACK call per
stack; orthonormal_basis and intersect are their T = 1 case.  One array holds
bases of one width, so a kernel whose trials disagree on a rank raises
RaggedRank and leaves the split to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput

__all__ = [
    "Tolerance",
    "Subspace",
    "RaggedRank",
    "orthonormal_basis",
    "orthonormal_stack",
    "intersect",
    "intersect_stack",
    "contains_stack",
    "project_onto_perp",
]

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class Tolerance:
    """Threshold rule for counting singular values toward numeric rank.

    A singular value counts iff it exceeds
    ``max(max(m, n) * eps * sigma_max * rel_rank_tol, abs_floor)``.
    """

    rel_rank_tol: float = 100.0
    abs_floor: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.rel_rank_tol) and self.rel_rank_tol >= 0):
            raise InvalidInput("rel_rank_tol must be finite and >= 0")
        if not (np.isfinite(self.abs_floor) and self.abs_floor >= 0):
            raise InvalidInput("abs_floor must be finite and >= 0")

    def rank_threshold(self, shape: tuple[int, int], sigma_max):
        """Threshold for an m x n matrix of this shape; elementwise over an array of sigma_max."""
        rel = max(shape) * _EPS * sigma_max * self.rel_rank_tol
        return np.maximum(rel, self.abs_floor)

    def numeric_rank(self, singular_values: np.ndarray, shape: tuple[int, int]):
        """Rank of an m x n matrix from its singular values, sorted descending.

        A (T, k) stack of singular values gives an array of T ranks, one per row.
        """
        s = np.asarray(singular_values)
        if s.shape[-1] == 0:
            return np.zeros(s.shape[:-1], dtype=np.intp)
        return (s > self.rank_threshold(shape, s[..., :1])).sum(axis=-1)


DEFAULT_TOL = Tolerance()


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


def _check_orthonormal(b: np.ndarray) -> None:
    """Raise unless every basis of the (..., N, d) stack b is finite with orthonormal columns."""
    if not np.isfinite(b).all():
        raise InvalidInput("basis contains non-finite entries")
    gram = b.conj().swapaxes(-1, -2) @ b
    if np.any(np.linalg.norm(gram - np.eye(b.shape[-1]), axis=(-2, -1)) > 1e-10):
        raise InvalidInput("basis columns are not orthonormal")


def orthonormal_stack(cols, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal bases of the column spaces of a (T, N, m) stack, rank-truncated.

    Each trial's rank follows the Tolerance rule; raises RaggedRank when the
    trials' ranks differ.
    """
    a = np.asarray(cols, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] < 1:
        raise InvalidInput(f"expected a T x N x m stack with N >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("input contains non-finite entries")
    if a.shape[2] == 0:
        return a
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    u = u[..., : _common_rank(tol.numeric_rank(s, a.shape[1:]))]
    _check_orthonormal(u)
    return u


def orthonormal_basis(cols, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the column space, with numeric rank truncation."""
    a = np.asarray(cols, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1:
        raise InvalidInput(f"expected an N x m matrix with N >= 1, got shape {a.shape}")
    return Subspace._of_checked(orthonormal_stack(a[None], tol)[0])


def intersect_stack(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
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
    r = _common_rank(tol.numeric_rank(s, stacked.shape[1:]))
    null = vh[:, r:].conj().swapaxes(1, 2)  # (T, dA+dB, nullity)
    return orthonormal_stack(a @ null[:, :da], tol)


def intersect(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection span(A) & span(B); the T = 1 case of intersect_stack."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace._of_checked(intersect_stack(a.basis[None], b.basis[None], tol)[0])


def contains_stack(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Per trial, whether span(B_t) lies in span(A_t), for stacks of orthonormal bases."""
    if b.shape[2] == 0:
        return np.ones(b.shape[0], dtype=bool)
    resid = b - (a @ a.conj().swapaxes(1, 2)) @ b
    return np.linalg.norm(resid, axis=(1, 2)) < tol


def project_onto_perp(x, s: Subspace) -> np.ndarray:
    """Orthogonal projection of the columns of x onto the complement of s."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] != s.ambient_dim:
        raise DimensionMismatch(f"x has {x.shape[0]} rows, ambient dim is {s.ambient_dim}")
    if s.d == 0:
        return x.copy()
    return x - s.basis @ (s.basis.conj().T @ x)
