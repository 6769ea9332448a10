"""Tolerance-aware complex linear algebra on subspaces of C^N.

A subspace is stored as an N x d matrix with orthonormal columns; d = 0 is a
first-class value (empty basis) so direct-sum decompositions with empty parts
need no special-casing.  All rank decisions go through a single threshold rule
(see Tolerance) because everything downstream -- intersections, direct-sum
tests, feasibility verification -- reduces to numeric rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput

__all__ = [
    "Tolerance",
    "Subspace",
    "orthonormal_basis",
    "intersect",
    "subspace_sum",
    "is_direct_sum",
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

    def rank_threshold(self, shape: tuple[int, int], sigma_max: float) -> float:
        rel = max(shape) * _EPS * sigma_max * self.rel_rank_tol
        return max(rel, self.abs_floor)

    def numeric_rank(self, singular_values: np.ndarray, shape: tuple[int, int]) -> int:
        if singular_values.size == 0:
            return 0
        thr = self.rank_threshold(shape, float(singular_values[0]))
        return int(np.count_nonzero(singular_values > thr))


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
        if b.size and not (np.all(np.isfinite(b.real)) and np.all(np.isfinite(b.imag))):
            raise InvalidInput("basis contains non-finite entries")
        gram = b.conj().T @ b
        if np.linalg.norm(gram - np.eye(b.shape[1])) > 1e-10:
            raise InvalidInput("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def contains(self, other: "Subspace", tol: float = 1e-9) -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        if other.d == 0:
            return True
        resid = other.basis - self.projector() @ other.basis
        return bool(np.linalg.norm(resid) < tol)

    def same_subspace(self, other: "Subspace", tol: float = 1e-9) -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return bool(np.linalg.norm(self.projector() - other.projector()) < tol)


def orthonormal_basis(cols, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the column space, with numeric rank truncation."""
    a = np.asarray(cols, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1:
        raise InvalidInput(f"expected an N x m matrix with N >= 1, got shape {a.shape}")
    if a.size and not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise InvalidInput("input contains non-finite entries")
    if a.shape[1] == 0:
        return Subspace.zero(a.shape[0])
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = tol.numeric_rank(s, a.shape)
    return Subspace(a.shape[0], u[:, :r])


def intersect(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection span(A) & span(B) via the stacked-nullspace method.

    Null vectors (x; y) of [A | -B] satisfy A x = B y; mapping the x-block
    through A yields a spanning set of the intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if a.d == 0 or b.d == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = np.hstack([a.basis, -b.basis])
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    s = np.concatenate([s, np.zeros(stacked.shape[1] - s.size)])
    r = tol.numeric_rank(s, stacked.shape)
    null = vh[r:].conj().T  # (dA+dB) x nullity
    if null.shape[1] == 0:
        return Subspace.zero(a.ambient_dim)
    return orthonormal_basis(a.basis @ null[: a.d], tol)


def subspace_sum(parts: list[Subspace], tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Span of the union of the parts' bases."""
    if not parts:
        raise InvalidInput("empty list of subspaces")
    n = parts[0].ambient_dim
    if any(p.ambient_dim != n for p in parts):
        raise DimensionMismatch("ambient dimensions differ")
    stacked = np.hstack([p.basis for p in parts])
    if stacked.shape[1] == 0:
        return Subspace.zero(n)
    return orthonormal_basis(stacked, tol)


def is_direct_sum(parts: list[Subspace], tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff dim(sum of parts) equals the sum of the parts' dimensions."""
    total = subspace_sum(parts, tol)
    return total.d == sum(p.d for p in parts)


def project_onto_perp(x, s: Subspace) -> np.ndarray:
    """Orthogonal projection of the columns of x onto the complement of s."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] != s.ambient_dim:
        raise DimensionMismatch(f"x has {x.shape[0]} rows, ambient dim is {s.ambient_dim}")
    if s.d == 0:
        return x.copy()
    return x - s.basis @ (s.basis.conj().T @ x)
