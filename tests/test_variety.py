import itertools
from math import comb

import numpy as np
import pytest

from relay_align import variety
from relay_align.errors import InvalidInput
from relay_align.feasibility import haar_stack
from relay_align.subspace import (
    BLOCK_ENTRIES,
    RaggedRank,
    _complex_gaussian,
    _triple_dim,
    numeric_rank,
    orthonormal_stack,
)
from relay_align.variety import (
    _determinant_block,
    _line_coeffs,
    _normalize_projective,
    _relation_table,
    _residuals,
    codim_line_probe,
    determinant_probe,
    plucker_coords,
    plucker_probe,
)

E3 = np.eye(3, dtype=complex)


def plane(cols):
    return orthonormal_stack(E3[:, cols][None])[0]


class TestPlucker:
    def test_coordinate_plane(self):
        coords = plucker_coords(plane([0, 1])[None])[0]
        assert np.allclose(coords, [1, 0, 0])

    def test_hand_computed_minors(self):
        # span{e1+e2, e3}: the three 2x2 minors are (0, a, a) for a common scale a
        s = orthonormal_stack(np.array([[[1, 0], [1, 0], [0, 1]]], dtype=complex))[0]
        coords = plucker_coords(s[None])[0]
        assert np.allclose(coords, np.array([0, 1, 1]) / np.sqrt(2))

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            d = int(rng.integers(2, n))
            s = haar_stack(n, d, 1, rng)[0]
            # re-span through a random invertible mix; minors scale by one determinant
            mix = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            remixed = orthonormal_stack((s @ mix)[None])[0]
            coords = plucker_coords(np.stack([s, remixed]))
            assert np.linalg.norm(coords[0] - coords[1]) < 1e-9

    def test_zero_dimensional_rejected(self):
        with pytest.raises(InvalidInput):
            plucker_coords(np.zeros((3, 0), complex)[None])


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

    def test_zero_vector_is_no_projective_point(self):
        with pytest.raises(InvalidInput, match="zero coordinate vector is not a projective point"):
            _normalize_projective(np.array([[1, 0, 0], [0, 0, 0]], dtype=complex))

    def test_lines_have_no_relations(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert _residuals(_relation_table(5, 1), _normalize_projective(v[None]))[0] < 1e-9
        # the table is empty, so each of three points has the residual 0
        got = _residuals(_relation_table(5, 1), plucker_coords(haar_stack(5, 1, 3, rng)))
        assert _relation_table(5, 1).left.size == 0 and got.shape == (3,) and not got.any()


class TestTripleIntersection:
    def test_three_plane_example(self):
        planes = (plane([0, 1]), plane([1, 2]), plane([0, 2]))
        assert _triple_dim(*(v[None] for v in planes)) == 0

    def test_equal_triple(self):
        s = plane([0, 1])[None]
        assert _triple_dim(s, s, s) == 2

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_generic_two_thirds_planes(self, n):
        rng = np.random.default_rng(300 + n)
        d = 2 * n // 3
        for _ in range(20):
            assert _triple_dim(*haar_stack(n, d, 3, rng)[:, None]) == 0


class TestDeterminantalTest:
    def test_coordinate_planes(self):
        planes = np.stack([plane([0, 1]), plane([1, 2]), plane([0, 2])])
        dets, singular, dims = _determinant_block(planes[None])
        assert abs(dets[0] - 1) < 1e-12  # normals are e3, e1, e2 up to sign
        assert not singular[0]
        assert dims[0] == 0

    def test_degenerate_equal_planes(self):
        s = plane([0, 1])
        dets, singular, dims = _determinant_block(np.stack([s, s, s])[None])
        assert dets[0] == 0  # three equal rows
        assert singular[0]
        assert dims[0] == 2

    def test_agreement_with_rank_test(self):
        dets, singular, dims = determinant_probe(100, np.random.default_rng(9))
        assert np.count_nonzero(singular == (dims > 0)) == 100
        assert not singular.any() and dets.min() > 1e-3

    def test_perp_line_of_coordinate_plane(self):
        # beside the coordinate planes with normals e_j, j != k, |det| is |n_k| for the normal n = e3 of span{e1, e2}
        def normal_to(j):
            return plane([i for i in range(3) if i != j])

        triples = np.stack([[plane([0, 1]), *(normal_to(j) for j in range(3) if j != k)] for k in range(3)])
        dets, singular, dims = _determinant_block(triples)
        assert np.allclose(dets, [0, 0, 1])
        assert singular.tolist() == [True, True, False]
        assert dims.tolist() == [1, 1, 0]

    @pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11])
    def test_tilted_off_a_shared_line(self, eps):
        # in a Haar frame q0, q1, q2, P1 = span{q0, q1} and P2 = span{q0, q2} meet in q0 alone, and
        # P3 = span{q0 + eps q1, q1 + q2} misses q0 by about eps: no line is common to all three. Untilted, P3
        # holds q0 and the three share it. The rank rule must say so twice, for the normals and the intersection
        frames = haar_stack(3, 3, 200, np.random.default_rng(42))
        q0, q1, q2 = (frames[..., k : k + 1] for k in range(3))
        for tilt, meet in ((eps, False), (0.0, True)):
            planes = [np.concatenate(p, axis=2) for p in ((q0, q1), (q0, q2), (q0 + tilt * q1, q1 + q2))]
            _, singular, dims = _determinant_block(np.stack([orthonormal_stack(p) for p in planes], axis=1))
            assert singular.tolist() == [meet] * 200
            assert dims.tolist() == [int(meet)] * 200

    def test_tilt_below_the_rank_threshold_reads_as_met(self):
        # the triples above tilted 1e-12: the smallest singular value of the normals, and that of [line | -P3] in
        # the triple intersection's last step, are both about 5e-13, below the rank rule's 1e-12 floor (at a
        # tilt of 1e-11 both are about 5e-12, above it): both verdicts call the planes met
        frames = haar_stack(3, 3, 200, np.random.default_rng(42))
        q0, q1, q2 = (frames[..., k : k + 1] for k in range(3))
        planes = [np.concatenate(p, axis=2) for p in ((q0, q1), (q0, q2), (q0 + 1e-12 * q1, q1 + q2))]
        _, singular, dims = _determinant_block(np.stack([orthonormal_stack(p) for p in planes], axis=1))
        assert singular.tolist() == [True] * 200
        assert dims.tolist() == [1] * 200


def reference_roots(coeffs):
    """Roots of one cubic by np.roots after the 1e-10 cut, and whether it is identically zero, as found per line."""
    mags = np.abs(coeffs)
    peak = mags.max()
    if peak < 1e-10:
        return np.array([]), True
    return np.roots(np.trim_zeros(np.where(mags > 1e-10 * peak, coeffs, 0), "f")), False


def probe_lines(monkeypatch, anchors, directions):
    """codim_line_probe on the given (T, 3, 3) anchors and directions in place of its draw, checked line by line."""
    t = len(anchors)
    rows = iter(np.stack([anchors.reshape(t, 9), directions.reshape(t, 9)], axis=1).reshape(2 * t, 9))

    def draw(rng, count, size, variance):  # a line's two rows: its anchor, then its direction
        return np.stack(list(itertools.islice(rows, count)))

    monkeypatch.setattr(variety, "_complex_gaussian", draw)
    counts, zeros = codim_line_probe(np.random.default_rng(0), t)
    for a, b, count, zero in zip(anchors, directions, counts, zeros):
        roots, want_zero = reference_roots(_line_coeffs(a[None], b[None])[0])
        assert (count, zero) == (len(roots), want_zero)
    return counts, zeros


class TestLineProbe:
    def test_random_lines_always_hit_the_locus(self):
        rng = np.random.default_rng(17)
        counts, zeros = codim_line_probe(rng, 20)
        assert counts.shape == zeros.shape == (20,)
        assert (zeros | (counts >= 1)).all()  # every line whose cubic is not identically zero has a root
        assert all(1 <= c <= 3 for c in counts)

    def test_line_inside_the_locus(self, monkeypatch):
        # all three perp lines equal along the whole line: det vanishes identically
        rng = np.random.default_rng(18)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        anchors = np.column_stack([a, a, a])
        directions = np.column_stack([b, b, b])
        assert np.max(np.abs(_line_coeffs(anchors[None], directions[None])[0])) < 1e-10
        counts, zeros = probe_lines(monkeypatch, anchors[None], directions[None])
        assert zeros.tolist() == [True] and counts.tolist() == [0]

    def test_constant_line_with_feasible_triple(self, monkeypatch):
        # perp lines s e1, s e2, s e3: det = s^3, and 1e-12 is below the absolute 1e-10 cut
        scales = np.array([1, 1e-3, 1e-4])
        anchors = scales[:, None, None] * np.eye(3, dtype=complex)
        directions = np.zeros_like(anchors)
        assert np.allclose(_line_coeffs(anchors, directions) / scales[:, None] ** 3, [0, 0, 0, 1])
        counts, zeros = probe_lines(monkeypatch, anchors, directions)
        assert zeros.tolist() == [False, False, True] and counts.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_root_count_is_the_direction_rank(self, monkeypatch, scale):
        # det(A + x B) has degree rank(B) for a generic anchor A: directions of rank 0 to 3 give degrees 0 to 3
        rng = np.random.default_rng(19)
        ranks = np.repeat(np.arange(4), 25)

        def gauss(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        anchors = scale * gauss(len(ranks), 3, 3)
        directions = scale * np.stack([gauss(3, r) @ gauss(r, 3) for r in ranks])
        counts, zeros = probe_lines(monkeypatch, anchors, directions)
        assert np.array_equal(counts, ranks)
        assert not zeros.any()


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
    return orthonormal_stack(g[None])[0]


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
        s = haar_stack(n, d, 1, rng)[0]
        minors = [np.linalg.det(s[list(r), :]) for r in itertools.combinations(range(n), d)]
        assert same_bits(plucker_coords(s[None])[0], reference_normalize(np.array(minors)))
        stack = np.stack([haar_stack(n, d, 1, rng)[0] for _ in range(5)])
        assert same_bits(plucker_coords(stack), np.stack([plucker_coords(b[None])[0] for b in stack]))

    @pytest.mark.parametrize("n, d", [(1, 1), (3, 0), (3, 2), (6, 3), (7, 7)])
    def test_haar_stack_matches_successive_draws(self, n, d):
        stacked_rng, single_rng, reference_rng = (np.random.default_rng(7) for _ in range(3))
        stack = haar_stack(n, d, 6, stacked_rng)
        singles = np.stack([haar_stack(n, d, 1, single_rng)[0] for _ in range(6)])
        assert same_bits(stack, singles)
        if d:
            assert same_bits(stack, np.stack([reference_haar(n, d, reference_rng) for _ in range(6)]))
        # the generators are left at the same state
        assert stacked_rng.standard_normal() == single_rng.standard_normal()

    @pytest.mark.parametrize("n, d, count", [(1, 1, 1), (3, 0, 4), (3, 2, 6), (6, 3, 5), (7, 7, 3)])
    def test_haar_stack_matches_one_draw_of_count_pairs(self, n, d, count):
        # the draw haar_stack made before it went through the drawer: real, then imaginary parts, per subspace
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        raw = want_rng.standard_normal((count, 2, n, d))
        assert same_bits(haar_stack(n, d, count, got_rng), orthonormal_stack(raw[:, 0] + 1j * raw[:, 1]))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("t", [1, 2, 7])
    def test_line_draw_matches_one_draw_of_four_matrices(self, t):
        # codim_line_probe's anchors and directions: 2t rows of 9, as the (t, 4, 3, 3) draw it made before
        got_rng, want_rng = np.random.default_rng(12), np.random.default_rng(12)
        lines = _complex_gaussian(got_rng, 2 * t, 9, 2.0).reshape(t, 2, 3, 3)
        raw = want_rng.standard_normal((t, 4, 3, 3))
        assert same_bits(lines[:, 0], raw[:, 0] + 1j * raw[:, 1])
        assert same_bits(lines[:, 1], raw[:, 2] + 1j * raw[:, 3])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    # a block holds BLOCK_ENTRIES // (the entries one sample takes) samples;
    # many-blocks takes two full blocks and part of a third at the default rule
    @pytest.fixture(params=[False, True], ids=["one-block", "many-blocks"])
    def many_blocks(self, request):
        return request.param

    def test_plucker_probe_matches_per_sample(self, many_blocks):
        # a sample of Gr(3, 6) takes max(225 relations, C(6, 3) * 9 minor entries) = 225 entries
        samples = 2 * (BLOCK_ENTRIES // 225) + 3 if many_blocks else 9
        probe_rng, single_rng = np.random.default_rng(3), np.random.default_rng(3)
        residuals = plucker_probe(6, 3, samples, probe_rng)
        expected = [
            reference_residual(6, 3, plucker_coords(haar_stack(6, 3, 1, single_rng))[0]) for _ in range(samples)
        ]
        assert same_bits(residuals, np.array(expected))
        assert probe_rng.standard_normal() == single_rng.standard_normal()

    def test_line_probe_matches_per_line(self, many_blocks):
        lines = 2 * (BLOCK_ENTRIES // 36) + 3 if many_blocks else 40  # 36 entries a line
        counts, zeros = codim_line_probe(np.random.default_rng(5), lines)
        rng = np.random.default_rng(5)
        for t in range(lines):
            anchors = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            directions = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            coeffs = reference_line_determinant(anchors, directions)
            assert same_bits(_line_coeffs(anchors[None], directions[None])[0], coeffs)
            roots, zero = reference_roots(coeffs)
            assert counts[t] == len(roots)
            assert zeros[t] == zero

    def test_determinant_probe_matches_per_sample(self, many_blocks):
        samples = 2 * (BLOCK_ENTRIES // 18) + 3 if many_blocks else 30  # 18 entries a plane triple
        dets, singular, dims = determinant_probe(samples, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        for t in range(samples):
            planes = [haar_stack(3, 2, 1, rng)[0] for _ in range(3)]
            normals = np.stack([np.cross(v[:, 0], v[:, 1]) for v in planes])
            assert same_bits(dets[t], abs(complex(np.linalg.det(normals))))
            assert singular[t] == (numeric_rank(np.linalg.svd(normals, compute_uv=False), (3, 3)) < 3)
            assert dims[t] == _triple_dim(*(v[None] for v in planes))

    def test_ragged_block_falls_back_per_sample(self):
        rng = np.random.default_rng(8)
        planes = haar_stack(3, 2, 12, rng).reshape(4, 3, 3, 2)
        planes[2] = planes[2, 0]  # sample 2: three equal planes
        with pytest.raises(RaggedRank):
            _triple_dim(planes[:, 0], planes[:, 1], planes[:, 2])
        dets, singular, dims = _determinant_block(planes)
        assert dims.tolist() == [0, 0, 2, 0]
        assert singular.tolist() == [False, False, True, False]
        assert dets[2] == 0

    @pytest.mark.parametrize("n, d", [(1, 1), (4, 1), (5, 5), (1000, 1000)])
    def test_relation_free_shape_draws_nothing(self, n, d):
        # Gr(1, n) and Gr(n, n) have no relations: every residual is 0 without a draw
        rng = np.random.default_rng(9)
        residuals = plucker_probe(n, d, 7, rng)
        assert residuals.shape == (7,) and not residuals.any()
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state

    def test_oversized_table_rejected_before_drawing(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidInput, match="wedge-relation terms"):
            plucker_probe(13, 4, 1, rng)
        assert rng.standard_normal() == np.random.default_rng(9).standard_normal()

    @pytest.mark.parametrize("n, d", [(2000, 2000), (1 << 21, 1), (110, 109)])
    def test_oversized_minor_stack_rejected_before_drawing(self, n, d):
        # C(n, d) d^2 minor entries a sample past 2^20: no relations at d = N or d = 1, and at
        # d = N - 1 with 103 <= N <= 128 a relation table under 2^20 (Gr(109, 110): 659,450 terms)
        assert comb(n, d) * d * d > variety.MAX_RELATION_TERMS
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidInput, match="minor entries per sample"):
            plucker_probe(n, d, 1, rng)
        assert rng.standard_normal() == np.random.default_rng(9).standard_normal()
