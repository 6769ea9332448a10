"""Plucker-coordinate machinery and numeric probes of the degenerate locus.

For K = 3 equal-dimension strategies, the bad locus is where the triple
intersection is nonzero.  In the plane case (N = 3, d = 2) this locus is cut
out by a single 3x3 determinant in the perp-line coordinates; in general we
detect membership by rank computations on iterated intersections.

Every probe works on stacks of samples: the Haar draws, the wedge minors, the
three-term relations (gathered from one cached index table per (n, d)), the
perp lines, the determinants, the line polynomials and their root counts are
each one stacked numpy or LAPACK call per block of samples; a single sample is
a stack of one.  Each probe returns plain arrays, one entry a sample, and the
CLI forms the printed figures from them.  The blocks are subspace.blocks, and
each block's draw one _complex_gaussian call of a row per subspace, or two per
line; a shape past MAX_RELATION_TERMS is refused, and one without relations
answers, before any draw.
Two absolute thresholds stay outside the rank rule: DET_ZERO_THRESHOLD and the
line-polynomial coefficient cut of codim_line_probe (1e-10).  Complex products
and magnitudes that reach the output are formed from real and imaginary parts
(np.hypot), which round as numpy's scalar complex arithmetic does; numpy's
vectorized complex multiply and np.abs may round differently in the last bit.
"""

from __future__ import annotations

import functools
import itertools
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .feasibility import haar_stack
from .subspace import _complex_gaussian, _triple_dim, blocks, split_by_rank

__all__ = [
    "plucker_coords",
    "plucker_probe",
    "determinant_probe",
    "codim_line_probe",
]

DET_ZERO_THRESHOLD = 1e-8
MAX_RELATION_TERMS = 1 << 20  # largest relation table (relations x terms), and minor stack of one sample


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


def plucker_probe(n: int, d: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Wedge-relation residual of each of `samples` Haar-random d-dimensional subspaces of C^n.

    Sample t is the largest relation residual (_residuals) of the wedge
    coordinates of the t-th successive haar_stack(n, d, 1, rng) draw; the
    samples are drawn and checked in blocks of max(R, C(n, d) d^2) entries a
    sample, as _residuals gathers (T, R) arrays of its R relations and _minors
    a C(n, d) x d x d stack.  A minor stack or relation table past
    MAX_RELATION_TERMS entries raises InvalidInput before any draw.  Gr(1, n)
    and Gr(n, n) have no relations: their residuals are 0, drawn from nothing.
    """
    minors = comb(n, d) * d * d
    if minors > MAX_RELATION_TERMS:
        raise InvalidInput(f"Gr({d}, {n}) takes {minors} minor entries per sample, more than {MAX_RELATION_TERMS}")
    table = _relation_table(n, d)
    if 1 <= d <= n and not table.left.size:
        return np.zeros(samples)
    draws = (haar_stack(n, d, b.stop - b.start, rng) for b in blocks(samples, max(table.left.shape[1], minors)))
    return np.concatenate([_residuals(table, plucker_coords(bases)) for bases in draws])


def _determinant_block(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|det| of the perp-line matrix, and the triple-intersection dim, of each of a (T, 3, 3, 2) stack of plane triples.

    Each plane's perp line is the last right singular vector of its conjugate
    transpose, unit and phase-normalized (_normalize_projective); the
    determinant is zero (below DET_ZERO_THRESHOLD) exactly when the three
    planes share a common line, i.e. the triple intersection is nonzero.  The
    dims are _triple_dim's; a block whose triples disagree on a rank of the
    iterated intersection runs again one triple at a time (split_by_rank).
    """
    t = planes.shape[0]
    _, _, vh = np.linalg.svd(planes.reshape(3 * t, 3, 2).conj().swapaxes(1, 2))
    lines = _normalize_projective(vh[:, -1].conj()).reshape(t, 3, 3)
    det = np.linalg.det(lines.swapaxes(1, 2))
    (dims,) = split_by_rank(
        lambda abc: (np.full(abc[0].shape[0], _triple_dim(*abc)),), [planes[:, 0], planes[:, 1], planes[:, 2]]
    )
    return np.hypot(det.real, det.imag), dims


def determinant_probe(samples: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """|det| of the perp-line matrix and the triple-intersection dim of `samples` Haar plane triples.

    Sample t uses the t-th three successive haar_stack(3, 2, 1, rng) draws;
    the triples are drawn and checked in stacked blocks.
    """
    draws = (haar_stack(3, 2, 3 * (b.stop - b.start), rng) for b in blocks(samples, 3 * 3 * 2))
    dets, dims = map(np.concatenate, zip(*[_determinant_block(g.reshape(-1, 3, 3, 2)) for g in draws]))
    return dets, dims


_NODES = np.array([0.0, 1.0, -1.0, 2.0])
_VANDER = np.vander(_NODES, 4)  # columns t^3, t^2, t, 1


def _line_coeffs(anchors: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Coefficients (highest power first) of the cubic det(A_t + x B_t) in x, per sample of (T, 3, 3) stacks: (T, 4).

    Evaluated at four nodes and solved for with one Vandermonde system.
    """
    vals = np.linalg.det(anchors[:, None] + _NODES[:, None, None] * directions[:, None])
    return np.linalg.solve(_VANDER, vals[..., None])[..., 0]


def codim_line_probe(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Restrict the plane-triple determinant to random affine lines.

    Each sample draws random anchors and directions for the three perp lines
    and forms the cubic det(t) (_line_coeffs).  The lines are drawn, and their
    cubics formed and decided, in stacked blocks.  A cubic is identically zero
    when every coefficient is below 1e-10; it then has no roots.  Otherwise a
    coefficient at most 1e-10 times the largest counts as zero, and the root
    count is the degree left: a degree-m polynomial over C has m roots with
    multiplicity.  A generic line yields a nonconstant polynomial with at
    least one complex root, evidence that the degenerate locus has
    codimension one.  Returns two (samples,) arrays, line t's in entry t:
    the root counts (int) and whether each cubic is identically zero (bool).
    """
    counts, zeros = [], []
    for block in blocks(samples, 4 * 3 * 3):
        t = block.stop - block.start
        lines = _complex_gaussian(rng, 2 * t, 9, 2.0).reshape(t, 2, 3, 3)  # anchor, then direction
        mags = np.abs(_line_coeffs(lines[:, 0], lines[:, 1]))
        peak = mags.max(axis=1)
        zero = peak < 1e-10
        zeros.append(zero)
        counts.append(np.where(zero, 0, 3 - np.argmax(mags > 1e-10 * peak[:, None], axis=1)))
    return np.concatenate(counts), np.concatenate(zeros)
