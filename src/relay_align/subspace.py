"""Complex linear algebra on subspaces of C^N under one numeric rank rule.

A subspace has one representation: an N x d complex array with orthonormal
columns.  d = 0 is a first-class value (an N x 0 array) so direct-sum
decompositions with empty parts need no special-casing.  All rank decisions
go through a single threshold rule (rank_threshold) because everything
downstream -- intersections, direct-sum conditions, feasibility
verification -- reduces to numeric rank.

The kernels work on (T, N, d) stacks of T bases at once, one LAPACK call per
stack; one basis is a stack of one, orthonormal_stack(x[None])[0].  One
array holds bases of one width, so a kernel whose trials disagree on a rank
raises RaggedRank, and split_by_rank reruns the block split by that rank.
Several stacks of one width go through one LAPACK call as a (T, m, N, d)
array, each of the m with its own rank: _orthonormal_each and
_intersect_each take lists, and orthonormal_stack and intersect_stack are
their one-stack case.
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


class RaggedRank(Exception):
    """The trials of one stack disagree on a numeric rank; ranks holds each trial's."""

    def __init__(self, ranks: np.ndarray):
        super().__init__(f"trials disagree on a numeric rank: {np.unique(ranks).tolist()}")
        self.ranks = ranks


def _common_rank(ranks: np.ndarray) -> np.ndarray:
    """The rank each stack of a (T, m) array of ranks holds in all T trials, as m ints.

    Raises RaggedRank with the T ranks of the first stack whose trials disagree.
    """
    ragged = (ranks != ranks[0]).any(axis=0)
    if ragged.any():
        raise RaggedRank(ranks[:, int(ragged.argmax())])
    return ranks[0]


def _group_by(keys) -> dict:
    """Positions of each key, in order of first appearance."""
    groups: dict = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    return groups


def _rank_groups(ranks: np.ndarray):
    """(rank, index of the stacks of that rank) for each distinct rank of an m-array; one rank indexes all."""
    if (ranks == ranks[0]).all():
        return [(int(ranks[0]), slice(None))]
    return [(r, np.array(pos)) for r, pos in _group_by(ranks.tolist()).items()]


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
    if b.shape[-1] == 0:  # an N x 0 basis is empty, so finite and orthonormal
        return
    if not np.isfinite(b).all():
        raise InvalidInput("basis contains non-finite entries")
    gram = b.conj().swapaxes(-1, -2) @ b
    if np.any(np.linalg.norm(gram - np.eye(b.shape[-1]), axis=(-2, -1)) > 1e-10):
        raise InvalidInput("basis columns are not orthonormal")


def _orthonormal_group(x: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of the column spaces of a (T, m, N, c) array: m (T, N, r_p) stacks.

    One SVD call; stack p is truncated to its rank r_p, which its T trials must
    share (RaggedRank otherwise).
    """
    if not np.isfinite(x).all():
        raise InvalidInput("input contains non-finite entries")
    if x.shape[-1] == 0:
        return list(x.swapaxes(0, 1))
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    ranks = _common_rank(numeric_rank(s, x.shape[-2:]))
    for r, sel in _rank_groups(ranks):
        _check_orthonormal(u[:, sel, :, :r])
    return [u[:, p, :, :r] for p, r in enumerate(ranks.tolist())]


def _orthonormal_each(stacks: list[np.ndarray]) -> list[np.ndarray]:
    """orthonormal_stack of each (T, N, c_p) stack, one SVD call per width c_p."""
    out = [None] * len(stacks)
    for pos in _group_by(b.shape[2] for b in stacks).values():
        for p, basis in zip(pos, _orthonormal_group(np.stack([stacks[p] for p in pos], axis=1))):
            out[p] = basis
    return out


def orthonormal_stack(cols) -> np.ndarray:
    """Orthonormal bases of the column spaces of a (T, N, m) stack, rank-truncated.

    Each trial's rank follows the rank_threshold rule; raises RaggedRank when
    the trials' ranks differ.
    """
    a = np.asarray(cols, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] < 1:
        raise InvalidInput(f"expected a T x N x m stack with N >= 1, got shape {a.shape}")
    return _orthonormal_group(a[:, None])[0]


def _intersect_each(a: np.ndarray, bs: list[np.ndarray]) -> list[np.ndarray]:
    """span(A_t) & span(B_t) for a (T, N, dA) stack A and each (T, N, dB) stack B of bs, all orthonormal.

    Null vectors (x; y) of [A | -B] satisfy A x = B y; mapping the x-block
    through A yields a spanning set of the intersection.  The B of one width
    share one array [A | -B_1], ..., [A | -B_m] and one SVD call, and those
    whose [A | -B] has one rank share the orthonormalisation of that spanning
    set; raises RaggedRank when the trials disagree on a rank.
    """
    t, n, da = a.shape
    out = [None] * len(bs)
    for db, pos in _group_by(b.shape[2] for b in bs).items():
        if da == 0 or db == 0:
            for p in pos:
                out[p] = np.zeros((t, n, 0), dtype=np.complex128)
            continue
        stacked = np.empty((t, len(pos), n, da + db), dtype=np.complex128)
        stacked[..., :da] = a[:, None]
        for q, p in enumerate(pos):
            np.negative(bs[p], out=stacked[:, q, :, da:])
        # vh must be square to hold the null space; with N >= dA + dB it is square either way, and U stays N x (dA + dB)
        _, s, vh = np.linalg.svd(stacked, full_matrices=n < da + db)
        ranks = _common_rank(numeric_rank(s, (n, da + db)))
        for r, sel in _rank_groups(ranks):
            null = vh[:, sel, r:].conj().swapaxes(-1, -2)  # (T, pairs, dA+dB, nullity)
            for p, basis in zip(np.asarray(pos)[sel], _orthonormal_group(a[:, None] @ null[..., :da, :])):
                out[p] = basis
    return out


def intersect_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersections span(A_t) & span(B_t) of two (T, N, d) stacks of orthonormal bases.

    The one-partner case of _intersect_each; raises RaggedRank when the trials
    disagree on a rank.
    """
    if a.shape[:2] != b.shape[:2]:
        raise DimensionMismatch(f"stacks of shape {a.shape} and {b.shape} do not pair up")
    return _intersect_each(a, [b])[0]


def _triple_dim(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> int:
    """dim of span(A_t) & span(B_t) & span(C_t), shared by three (T, N, d) stacks; raises RaggedRank."""
    return intersect_stack(intersect_stack(a, b), c).shape[2]
