import itertools
from math import comb

import numpy as np
import pytest

from relay_align import variety
from relay_align.errors import InvalidInput
from relay_align.feasibility import haar_stack, haar_subspace
from relay_align.subspace import RaggedRank, Subspace, orthonormal_basis
from relay_align.variety import (
    DET_ZERO_THRESHOLD,
    _determinant_block,
    _line_coeffs,
    _normalize_projective,
    _perp_det,
    _perp_lines,
    _poly_roots,
    _relation_table,
    _residuals,
    _triple_dim,
    codim_line_probe,
    determinant_probe,
    plucker_coords,
    plucker_probe,
)

E3 = np.eye(3, dtype=complex)


def plane(cols):
    return orthonormal_basis(E3[:, cols])


class TestPlucker:
    def test_coordinate_plane(self):
        coords = plucker_coords(plane([0, 1]).basis[None])[0]
        assert np.allclose(coords, [1, 0, 0])

    def test_hand_computed_minors(self):
        # span{e1+e2, e3}: the three 2x2 minors are (0, a, a) for a common scale a
        s = orthonormal_basis(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex))
        coords = plucker_coords(s.basis[None])[0]
        assert np.allclose(coords, np.array([0, 1, 1]) / np.sqrt(2))

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            d = int(rng.integers(2, n))
            s = haar_subspace(n, d, rng)
            # re-span through a random invertible mix; minors scale by one determinant
            mix = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            remixed = orthonormal_basis(s.basis @ mix)
            coords = plucker_coords(np.stack([s.basis, remixed.basis]))
            assert np.linalg.norm(coords[0] - coords[1]) < 1e-9

    def test_zero_dimensional_rejected(self):
        with pytest.raises(InvalidInput):
            plucker_coords(Subspace.zero(3).basis[None])


class TestPluckerRelations:
    def test_points_from_matrices_satisfy_relations(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, n + 1))
            coords = plucker_coords(haar_stack(n, d, 1, rng))
            assert _residuals(_relation_table(n, d), coords)[0] < 1e-9

    def test_non_decomposable_point_fails(self):
        # p12 = p34 = 1: the single G(2,4) relation p12 p34 - p13 p24 + p14 p23 = 1
        coords = _normalize_projective(np.array([[1, 0, 0, 0, 0, 1]], dtype=complex))
        assert not _residuals(_relation_table(4, 2), coords)[0] < 1e-9

    def test_lines_have_no_relations(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert _residuals(_relation_table(5, 1), _normalize_projective(v[None]))[0] < 1e-9


class TestTripleIntersection:
    def test_three_plane_example(self):
        planes = (plane([0, 1]), plane([1, 2]), plane([0, 2]))
        assert _triple_dim(*(v.basis[None] for v in planes)) == 0

    def test_equal_triple(self):
        s = plane([0, 1]).basis[None]
        assert _triple_dim(s, s, s) == 2

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_generic_two_thirds_planes(self, n):
        rng = np.random.default_rng(300 + n)
        d = 2 * n // 3
        for _ in range(20):
            assert _triple_dim(*haar_stack(n, d, 3, rng)[:, None]) == 0


class TestDeterminantalTest:
    def test_coordinate_planes(self):
        planes = np.stack([plane([0, 1]).basis, plane([1, 2]).basis, plane([0, 2]).basis])
        det = _perp_det(planes[None])[0]
        assert abs(abs(det) - 1) < 1e-12  # perp lines are e3, e1, e2

    def test_degenerate_equal_planes(self):
        s = plane([0, 1]).basis
        dets, dims = _determinant_block(np.stack([s, s, s])[None])
        assert dets[0] < DET_ZERO_THRESHOLD
        assert dims[0] == 2

    def test_agreement_with_rank_test(self):
        dets, dims = determinant_probe(100, np.random.default_rng(9))
        assert np.count_nonzero((dets < DET_ZERO_THRESHOLD) == (dims > 0)) == 100

    def test_perp_line_of_coordinate_plane(self):
        w = _perp_lines(plane([0, 1]).basis[None])[0]
        assert np.allclose(np.abs(w), [0, 0, 1])


class TestLineProbe:
    def test_random_lines_always_hit_the_locus(self):
        rng = np.random.default_rng(17)
        report = codim_line_probe(rng, 20)
        assert report.all_lines_hit
        assert all(1 <= c <= 3 for c in report.root_counts)
        assert all(r < 1e-6 for r in report.residuals)

    def test_line_inside_the_locus(self):
        # all three perp lines equal along the whole line: det vanishes identically
        rng = np.random.default_rng(18)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        anchors = np.column_stack([a, a, a])
        directions = np.column_stack([b, b, b])
        coeffs = _line_coeffs(anchors[None], directions[None])[0]
        assert np.max(np.abs(coeffs)) < 1e-10
        roots, zero = _poly_roots(coeffs)
        assert zero and len(roots) == 0

    def test_constant_line_with_feasible_triple(self):
        anchors = np.eye(3, dtype=complex)  # perp lines e1, e2, e3: det = 1
        directions = np.zeros((3, 3), dtype=complex)
        coeffs = _line_coeffs(anchors[None], directions[None])[0]
        assert np.allclose(coeffs, [0, 0, 0, 1])
        roots, zero = _poly_roots(coeffs)
        assert not zero and len(roots) == 0


# Reference copies of the per-sample probes the stacked kernels replaced.  The
# stacked code must reproduce them bit for bit: the CLI prints full-precision
# residuals and determinants.


def reference_normalize(c):
    c = c / np.linalg.norm(c)
    peak = np.max(np.abs(c))
    first = int(np.argmax(np.abs(c) > 1e-12 * peak))
    return c / (c[first] / abs(c[first]))


def reference_residual(n, d, coords):
    if d <= 1:
        return 0.0
    lookup = dict(zip(itertools.combinations(range(n), d), coords))

    def signed(indices):
        if len(set(indices)) != len(indices):
            return 0.0
        inversions = sum(a > b for k, a in enumerate(indices) for b in indices[k + 1 :])
        return (-1) ** inversions * lookup[tuple(sorted(indices))]

    worst = 0.0
    for s_idx in itertools.combinations(range(n), d - 1):
        for t_idx in itertools.combinations(range(n), d + 1):
            acc = 0.0
            for pos, l in enumerate(t_idx):
                acc += (-1) ** pos * signed(s_idx + (l,)) * signed(tuple(x for x in t_idx if x != l))
            worst = max(worst, abs(acc))
    return worst


def reference_haar(n, d, rng):
    g = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return orthonormal_basis(g).basis


def reference_line_determinant(anchors, directions):
    nodes = np.array([0.0, 1.0, -1.0, 2.0])
    vals = np.array([np.linalg.det(anchors + t * directions) for t in nodes])
    return np.linalg.solve(np.vander(nodes, 4), vals)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


SHAPES = [(n, d) for n in range(3, 8) for d in range(2, n)]


class TestStackedEquivalence:
    @pytest.mark.parametrize("n, d", SHAPES)
    def test_residual_matches_triple_loop(self, n, d):
        rng = np.random.default_rng(1000 + 10 * n + d)
        wedges = plucker_coords(haar_stack(n, d, 4, rng))
        raw = rng.standard_normal(comb(n, d)) + 1j * rng.standard_normal(comb(n, d))
        ends = np.zeros(comb(n, d), dtype=complex)
        ends[[0, -1]] = 1
        # generic coordinates, with no wedge for 2 <= d <= n - 2, and e_{0..d-1} + e_{n-d..n-1}
        points = np.concatenate([wedges, _normalize_projective(np.stack([raw, ends]))])
        residuals = _residuals(_relation_table(n, d), points)
        for p, residual in zip(points, residuals):
            assert same_bits(residual, reference_residual(n, d, p))
        if d <= n - 2:
            assert residuals[-2] > 1e-3
            assert residuals[-1] > 1e-3

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_wedge_coordinates_match_per_minor(self, n, d):
        rng = np.random.default_rng(2000 + 10 * n + d)
        s = haar_subspace(n, d, rng)
        minors = [np.linalg.det(s.basis[list(r), :]) for r in itertools.combinations(range(n), d)]
        assert same_bits(plucker_coords(s.basis[None])[0], reference_normalize(np.array(minors)))
        stack = np.stack([haar_subspace(n, d, rng).basis for _ in range(5)])
        assert same_bits(plucker_coords(stack), np.stack([plucker_coords(b[None])[0] for b in stack]))

    @pytest.mark.parametrize("n, d", [(1, 1), (3, 0), (3, 2), (6, 3), (7, 7)])
    def test_haar_stack_matches_successive_draws(self, n, d):
        stacked_rng, single_rng, reference_rng = (np.random.default_rng(7) for _ in range(3))
        stack = haar_stack(n, d, 6, stacked_rng)
        singles = np.stack([haar_subspace(n, d, single_rng).basis for _ in range(6)])
        assert same_bits(stack, singles)
        if d:
            assert same_bits(stack, np.stack([reference_haar(n, d, reference_rng) for _ in range(6)]))
        # the generators are left at the same state
        assert stacked_rng.standard_normal() == single_rng.standard_normal()

    @pytest.fixture(params=[variety.PROBE_BLOCK_TERMS, 40], ids=["one-block", "many-blocks"])
    def block_terms(self, request, monkeypatch):
        monkeypatch.setattr(variety, "PROBE_BLOCK_TERMS", request.param)

    def test_plucker_probe_matches_per_sample(self, block_terms):
        probe_rng, single_rng = np.random.default_rng(3), np.random.default_rng(3)
        residuals = plucker_probe(6, 3, 9, probe_rng)
        expected = [reference_residual(6, 3, plucker_coords(haar_stack(6, 3, 1, single_rng))[0]) for _ in range(9)]
        assert same_bits(residuals, np.array(expected))
        assert probe_rng.standard_normal() == single_rng.standard_normal()

    def test_line_probe_matches_per_line(self, block_terms):
        report = codim_line_probe(np.random.default_rng(5), 40)
        rng = np.random.default_rng(5)
        for t in range(40):
            anchors = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            directions = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            coeffs = reference_line_determinant(anchors, directions)
            assert same_bits(_line_coeffs(anchors[None], directions[None])[0], coeffs)
            roots, _ = _poly_roots(coeffs)
            assert report.root_counts[t] == len(roots)
            assert report.identically_zero[t] == bool(np.max(np.abs(coeffs)) < 1e-10)
            assert report.residuals[t] == max((abs(np.polyval(coeffs, r)) for r in roots), default=0.0)

    def test_determinant_probe_matches_per_sample(self, block_terms):
        dets, dims = determinant_probe(30, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        for t in range(30):
            planes = [haar_subspace(3, 2, rng) for _ in range(3)]
            lines = [reference_normalize(np.linalg.svd(v.basis.conj().T)[2][-1].conj()) for v in planes]
            det = complex(np.linalg.det(np.column_stack(lines)))
            assert same_bits(_perp_det(np.stack([v.basis for v in planes])[None])[0], det)
            assert same_bits(dets[t], abs(det))
            assert dims[t] == _triple_dim(*(v.basis[None] for v in planes))

    def test_ragged_block_falls_back_per_sample(self):
        rng = np.random.default_rng(8)
        planes = haar_stack(3, 2, 12, rng).reshape(4, 3, 3, 2)
        planes[2] = planes[2, 0]  # sample 2: three equal planes
        with pytest.raises(RaggedRank):
            _triple_dim(planes[:, 0], planes[:, 1], planes[:, 2])
        dets, dims = _determinant_block(planes)
        assert dims.tolist() == [0, 0, 2, 0]
        assert dets[2] < DET_ZERO_THRESHOLD < dets.min(initial=1.0, where=dims == 0)

    def test_oversized_table_rejected_before_drawing(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidInput, match="wedge-relation terms"):
            plucker_probe(13, 4, 1, rng)
        assert rng.standard_normal() == np.random.default_rng(9).standard_normal()
