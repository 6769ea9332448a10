"""Plucker-coordinate machinery and numeric probes of the degenerate locus.

For K = 3 equal-dimension strategies, the bad locus is where the triple
intersection is nonzero.  In the plane case (N = 3, d = 2) this locus is cut
out by a single 3x3 determinant in the perp-line coordinates; in general we
detect membership by rank computations on iterated intersections.

Every probe works on stacks of samples: the Haar draws, the wedge minors, the
three-term relations (gathered from one cached index table per (n, d)), the
perp lines, the determinants and the line polynomials are each one stacked
numpy or LAPACK call per block of samples; a single sample is a stack of one.
Two absolute thresholds stay outside the rank rule: DET_ZERO_THRESHOLD and the
line-polynomial cut of _poly_roots (1e-10).  Complex products and magnitudes
that reach the output are formed from real and imaginary parts (np.hypot),
which round as numpy's scalar complex arithmetic does; numpy's vectorized
complex multiply and np.abs may round differently in the last bit.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidInput
from .feasibility import haar_stack
from .subspace import intersect_stack, split_by_rank

__all__ = [
    "plucker_coords",
    "plucker_probe",
    "determinant_probe",
    "codim_line_probe",
    "LineProbeReport",
]

DET_ZERO_THRESHOLD = 1e-8
MAX_RELATION_TERMS = 1 << 20  # largest (relations x terms) table a wedge-relation residual builds
PROBE_BLOCK_TERMS = 1 << 16  # array entries per sample block of a probe


def _normalize_projective(c: np.ndarray) -> np.ndarray:
    """Each row of a (T, C) stack scaled to unit norm, its first nonzero coordinate real positive.

    The squared norms come from stacked 1 x C by C x 1 products of the real and
    imaginary parts, which numpy computes with BLAS dot, as np.linalg.norm does
    for one vector.
    """
    re, im = c.real[:, None], c.imag[:, None]
    norm = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])
    if (norm == 0).any():
        raise InvalidInput("zero coordinate vector is not a projective point")
    c = c / norm[:, None]
    mag = np.abs(c)  # only picks the leading coordinate
    first = np.argmax(mag > 1e-12 * mag.max(axis=1, keepdims=True), axis=1)
    lead = c[np.arange(len(c)), first]
    return c / (lead / np.hypot(lead.real, lead.imag))[:, None]


def _minors(bases: np.ndarray) -> np.ndarray:
    """All d x d minors of a (T, n, d) stack of bases, rows in lexicographic order: (T, C(n, d))."""
    n, d = bases.shape[1:]
    rows = np.array(list(itertools.combinations(range(n), d)), dtype=np.intp).reshape(-1, d)
    return np.linalg.det(bases[:, rows, :])


def plucker_coords(bases: np.ndarray) -> np.ndarray:
    """Wedge coordinates of a (T, n, d) stack of bases: all d x d minors, normalized by _normalize_projective."""
    if bases.shape[2] < 1:
        raise InvalidInput("zero-dimensional subspace has no projective wedge")
    return _normalize_projective(_minors(bases))


class _Relations(NamedTuple):
    """The three-term wedge relations of Gr(d, n) as gather indices, one column per relation.

    Row pos of relation (S, T) is the term sign * p[left] * p[right], with left
    the coordinate of S + T[pos], right that of T - T[pos], and sign the product
    of (-1)^pos and the sorting sign of S + T[pos].  A left index with a repeat
    points at the zero slot C(n, d) after the last coordinate.
    """

    left: np.ndarray  # (d + 1, R) intp
    right: np.ndarray  # (d + 1, R) intp
    sign: np.ndarray  # (d + 1, R) float, +-1


@functools.cache
def _relation_table(n: int, d: int) -> _Relations:
    """Every relation sum_l (-1)^l p_{S + T[l]} p_{T - T[l]} over (d-1)-sets S and (d+1)-sets T.

    Dimension-one and full-dimensional points have no relations: the table is
    empty.  Raises InvalidInput for shapes whose table would exceed
    MAX_RELATION_TERMS terms.
    """
    if d <= 1 or d >= n:
        return _Relations(*(np.zeros((max(d, 0) + 1, 0), dtype=t) for t in (np.intp, np.intp, float)))
    terms = comb(n, d - 1) * comb(n, d + 1) * (d + 1)
    if terms > MAX_RELATION_TERMS:
        raise InvalidInput(f"Gr({d}, {n}) has {terms} wedge-relation terms, more than {MAX_RELATION_TERMS}")
    index = {c: i for i, c in enumerate(itertools.combinations(range(n), d))}
    zero = len(index)
    left, right, sign = [], [], []
    for s_idx in itertools.combinations(range(n), d - 1):
        for t_idx in itertools.combinations(range(n), d + 1):
            for pos, l in enumerate(t_idx):
                left.append(zero if l in s_idx else index[tuple(sorted(s_idx + (l,)))])
                right.append(index[tuple(x for x in t_idx if x != l)])
                # sorting S + (l,) moves l past every element of S above it
                sign.append((-1.0) ** (pos + sum(x > l for x in s_idx)))
    return _Relations(*(np.array(a).reshape(-1, d + 1).T.copy() for a in (left, right, sign)))


def _residuals(table: _Relations, coords: np.ndarray) -> np.ndarray:
    """Largest |relation| (see _relation_table) per row of a (T, C) coordinate stack, terms summed in position order.

    Every relation vanishes on the wedge coordinates of a subspace.
    """
    t, c = coords.shape
    if table.left.size == 0:
        return np.zeros(t)
    re, im = np.zeros((t, c + 1)), np.zeros((t, c + 1))
    re[:, :c], im[:, :c] = coords.real, coords.imag
    acc_re = acc_im = 0.0
    for left, right, sign in zip(*table):
        lr, li, rr, ri = re[:, left], im[:, left], re[:, right], im[:, right]
        acc_re = acc_re + sign * (lr * rr - li * ri)
        acc_im = acc_im + sign * (lr * ri + li * rr)
    return np.hypot(acc_re, acc_im).max(axis=1)


def _block_counts(samples: int, per_sample: int) -> Iterator[int]:
    """Sizes of the successive blocks of a probe whose samples take per_sample array entries each."""
    if samples < 1:
        raise InvalidInput("samples must be >= 1")
    block = max(1, PROBE_BLOCK_TERMS // max(1, per_sample))
    return (min(block, samples - start) for start in range(0, samples, block))


def plucker_probe(n: int, d: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Wedge-relation residual of each of `samples` Haar-random d-dimensional subspaces of C^n.

    Sample t is the largest relation residual (_residuals) of the wedge
    coordinates of the t-th successive haar_subspace(n, d, rng) draw; the
    samples are drawn and checked in stacked blocks.
    """
    table = _relation_table(n, d)  # an oversized shape fails here, before any draw
    counts = _block_counts(samples, max(table.left.size, comb(n, d) * d * d))
    return np.concatenate([_residuals(table, plucker_coords(haar_stack(n, d, t, rng))) for t in counts])


def _triple_dim(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> int:
    """dim of the triple intersection shared by a block of (T, n, d) stacks; raises RaggedRank."""
    return intersect_stack(intersect_stack(a, b), c).shape[2]


def _perp_lines(planes: np.ndarray) -> np.ndarray:
    """Unit, phase-normalized perp lines of a (T, 3, 2) stack of plane bases: (T, 3)."""
    _, _, vh = np.linalg.svd(planes.conj().swapaxes(1, 2))
    return _normalize_projective(vh[:, -1].conj())


def _perp_det(planes: np.ndarray) -> np.ndarray:
    """det of the perp-line columns of each sample of a (T, 3, 3, 2) stack of plane triples.

    It is zero (below DET_ZERO_THRESHOLD) exactly when the three planes share
    a common line, i.e. the triple intersection is nonzero.
    """
    t = planes.shape[0]
    lines = _perp_lines(planes.reshape(3 * t, 3, 2)).reshape(t, 3, 3)
    return np.linalg.det(lines.swapaxes(1, 2))


def _determinant_block(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|_perp_det| and the triple-intersection dim (_triple_dim) of each triple of a (T, 3, 3, 2) stack.

    A block whose triples disagree on a rank of the iterated intersection
    splits by that rank (split_by_rank).
    """
    det = _perp_det(planes)
    (dims,) = split_by_rank(
        lambda abc: (np.full(abc[0].shape[0], _triple_dim(*abc)),), [planes[:, 0], planes[:, 1], planes[:, 2]]
    )
    return np.hypot(det.real, det.imag), dims


def determinant_probe(samples: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """|det| of the perp-line matrix and the triple-intersection dim of `samples` Haar plane triples.

    Sample t uses the t-th three successive haar_subspace(3, 2, rng) draws;
    the triples are drawn and checked in stacked blocks.
    """
    parts = [
        _determinant_block(haar_stack(3, 2, 3 * t, rng).reshape(t, 3, 3, 2))
        for t in _block_counts(samples, 3 * 3 * 2)
    ]
    dets, dims = map(np.concatenate, zip(*parts))
    return dets, dims


_NODES = np.array([0.0, 1.0, -1.0, 2.0])
_VANDER = np.vander(_NODES, 4)  # columns t^3, t^2, t, 1


def _line_coeffs(anchors: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Coefficients (highest power first) of the cubic det(A_t + x B_t) in x, per sample of (T, 3, 3) stacks: (T, 4).

    Evaluated at four nodes and solved for with one Vandermonde system.
    """
    vals = np.linalg.det(anchors[:, None] + _NODES[:, None, None] * directions[:, None])
    return np.linalg.solve(_VANDER, vals[..., None])[..., 0]


def _poly_roots(coeffs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Roots of coeffs, and whether it is identically zero: every coefficient below 1e-10.

    A coefficient at most 1e-10 times the largest counts as zero; a constant
    has no roots.
    """
    mags = np.abs(coeffs)
    peak = mags.max()
    if peak < 1e-10:
        return np.array([]), True
    return np.roots(np.trim_zeros(np.where(mags > 1e-10 * peak, coeffs, 0), "f")), False


@dataclass(frozen=True)
class LineProbeReport:
    """Root statistics of the restriction of the determinant to random lines."""

    samples: int
    root_counts: list[int]
    identically_zero: list[bool]
    residuals: list[float]

    @property
    def all_lines_hit(self) -> bool:
        """Every non-degenerate sampled line meets the determinant's zero set."""
        return all(
            z or c >= 1 for c, z in zip(self.root_counts, self.identically_zero)
        )


def codim_line_probe(rng: np.random.Generator, samples: int) -> LineProbeReport:
    """Restrict the plane-triple determinant to random affine lines.

    Each sample draws random anchors and directions for the three perp lines,
    forms det(t), and finds its roots.  The lines are drawn, and their
    determinants taken at the four nodes and solved for, in stacked blocks;
    only the root finding runs per line.  A generic line yields a nonconstant
    polynomial with at least one complex root, evidence that the degenerate
    locus has codimension one.
    """
    counts, zeros, residuals = [], [], []
    for t in _block_counts(samples, 4 * 3 * 3):
        raw = rng.standard_normal((t, 4, 3, 3))
        for coeffs in _line_coeffs(raw[:, 0] + 1j * raw[:, 1], raw[:, 2] + 1j * raw[:, 3]):
            roots, zero = _poly_roots(coeffs)
            counts.append(len(roots))
            zeros.append(zero)
            residuals.append(float(max(abs(np.polyval(coeffs, r)) for r in roots)) if len(roots) else 0.0)
    return LineProbeReport(
        samples=samples, root_counts=counts, identically_zero=zeros, residuals=residuals
    )
