import numpy as np
import pytest

from relay_align.errors import DimensionMismatch, InvalidInput
from relay_align.subspace import (
    ABS_RANK_FLOOR,
    Subspace,
    intersect_stack,
    orthonormal_basis,
    project_onto_perp,
    rank_threshold,
)

E3 = np.eye(3, dtype=complex)
E4 = np.eye(4, dtype=complex)


def span(*cols):
    return orthonormal_basis(np.column_stack(cols))


def projector(b):
    """Orthogonal projector onto the span of an orthonormal basis."""
    return b @ b.conj().T


def same_span(a, b):
    return np.linalg.norm(projector(a.basis) - projector(b.basis)) < 1e-9


def span_of_parts(parts):
    """The sum of subspaces: the span of their stacked bases."""
    return orthonormal_basis(np.hstack([p.basis for p in parts]))


def random_subspace(n, d, rng):
    return orthonormal_basis(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))


class TestOrthonormalBasis:
    def test_identity(self):
        s = orthonormal_basis(E3)
        assert s.d == 3
        assert np.allclose(projector(s.basis), np.eye(3))

    def test_rank_deficient_columns(self):
        s = orthonormal_basis(np.column_stack([E3[:, 0], 2 * E3[:, 0]]))
        assert s.d == 1
        assert same_span(s, span(E3[:, 0]))

    def test_random_matrix_rank_matches_singular_value_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        s = orthonormal_basis(a)
        # independent oracle: count singular values of the raw input above threshold
        sv = np.linalg.svd(a, compute_uv=False)
        expected = int(np.sum(sv > rank_threshold(a.shape, sv[0])))
        assert s.d == expected == 2
        p = projector(s.basis)
        assert np.linalg.norm(p @ p - p) < 1e-9

    @pytest.mark.parametrize("sigma_max, floor_rules", [(1.0, True), (1e3, False)], ids=["floor", "relative"])
    @pytest.mark.parametrize("factor, kept", [(0.9, False), (1.1, True)])
    def test_rank_rule_boundary(self, sigma_max, floor_rules, factor, kept):
        # singular values sigma_max, 1 and factor * rank_threshold under random unitaries:
        # at sigma_max ~ 1 the 1e-12 floor sets the threshold, at 1e3 the relative term
        rng = np.random.default_rng(11)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        threshold = rank_threshold((3, 3), sigma_max)
        assert (threshold == ABS_RANK_FLOOR) == floor_rules
        a = u @ np.diag([sigma_max, 1.0, factor * threshold]) @ v.conj().T
        assert np.linalg.svd(a, compute_uv=False)[-1] == pytest.approx(factor * threshold, rel=1e-2)
        assert orthonormal_basis(a).d == (3 if kept else 2)

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            orthonormal_basis(bad)

    def test_empty_columns(self):
        s = orthonormal_basis(np.zeros((3, 0)))
        assert s.d == 0


class TestIntersect:
    def test_idempotence(self):
        a = span(E3[:, 0], E3[:, 1]).basis
        assert np.linalg.norm(projector(intersect_stack(a[None], a[None])[0]) - projector(a)) < 1e-9

    def test_adjacent_coordinate_planes(self):
        a = span(E3[:, 0], E3[:, 1])
        b = span(E3[:, 1], E3[:, 2])
        got = intersect_stack(a.basis[None], b.basis[None])[0]
        assert got.shape[1] == 1
        assert np.linalg.norm(projector(got) - projector(E3[:, [1]])) < 1e-9

    def test_generic_planes_in_c4_disjoint(self):
        rng = np.random.default_rng(3)
        a = random_subspace(4, 2, rng)
        b = random_subspace(4, 2, rng)
        # oracle: stacked bases have full rank 4, so the intersection is trivial
        assert np.linalg.matrix_rank(np.hstack([a.basis, b.basis])) == 4
        assert intersect_stack(a.basis[None], b.basis[None]).shape[2] == 0

    def test_generic_planes_in_c3_meet_in_line(self):
        rng = np.random.default_rng(4)
        a = random_subspace(3, 2, rng)
        b = random_subspace(3, 2, rng)
        assert intersect_stack(a.basis[None], b.basis[None]).shape[2] == 1  # e = 2d - N = 1

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect_stack(span(E3[:, 0]).basis[None], orthonormal_basis(E4).basis[None])

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_subspace(4, 2, rng).basis[None]
            b = random_subspace(4, 3, rng).basis[None]
            ab, ba = intersect_stack(a, b)[0], intersect_stack(b, a)[0]
            assert np.linalg.norm(projector(ab) - projector(ba)) < 1e-9

    def test_zero_dimensional_operand(self):
        assert intersect_stack(Subspace.zero(3).basis[None], span(E3[:, 0]).basis[None]).shape[2] == 0


class TestSumAndDirectSum:
    def test_coordinate_sum_full(self):
        parts = [span(E3[:, i]) for i in range(3)]
        assert same_span(span_of_parts(parts), Subspace(3, E3))

    def test_sum_idempotent(self):
        s = span(E3[:, 0])
        assert same_span(span_of_parts([s, s]), s)

    def test_direct_sum_true(self):
        e2 = np.eye(2, dtype=complex)
        parts = [span(e2[:, 0]), span(e2[:, 1])]
        assert span_of_parts(parts).d == sum(p.d for p in parts)

    def test_direct_sum_false_on_overcount(self):
        e2 = np.eye(2, dtype=complex)
        parts = [span(e2[:, 0]), span(e2[:, 0] + e2[:, 1]), span(e2[:, 1])]
        assert span_of_parts(parts).d != sum(p.d for p in parts)

    def test_empty_list_rejected(self):
        # no parts stack to a matrix with no rows, which has no ambient space
        with pytest.raises(InvalidInput):
            orthonormal_basis(np.zeros((0, 0)))


class TestProjectOntoPerp:
    def test_annihilates_own_span(self):
        out = project_onto_perp(E3[:, [0]], span(E3[:, 0]))
        assert np.linalg.norm(out) < 1e-12

    def test_removes_one_component(self):
        x = (E3[:, 0] + E3[:, 1]).reshape(-1, 1)
        out = project_onto_perp(x, span(E3[:, 1]))
        assert np.allclose(out.ravel(), E3[:, 0])

    def test_pythagoras(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_subspace(5, 2, rng)
            x = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
            perp = project_onto_perp(x, s)
            proj = x - perp
            lhs = np.linalg.norm(x) ** 2
            rhs = np.linalg.norm(proj) ** 2 + np.linalg.norm(perp) ** 2
            assert abs(lhs - rhs) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        s = random_subspace(4, 2, rng)
        x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        once = project_onto_perp(x, s)
        twice = project_onto_perp(once, s)
        assert np.linalg.norm(once - twice) < 1e-9

    def test_result_orthogonal_to_subspace(self):
        rng = np.random.default_rng(13)
        s = random_subspace(4, 2, rng)
        x = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        out = project_onto_perp(x, s)
        assert np.linalg.norm(s.basis.conj().T @ out) < 1e-10


class TestGrassmannIdentities:
    def test_dimension_identity_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            da = int(rng.integers(0, n + 1))
            db = int(rng.integers(0, n + 1))
            a, b = random_subspace(n, da, rng), random_subspace(n, db, rng)
            lhs = span_of_parts([a, b]).d + intersect_stack(a.basis[None], b.basis[None]).shape[2]
            assert lhs == a.d + b.d

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (6, 4), (5, 3)])
    def test_generic_intersection_law(self, n, d):
        rng = np.random.default_rng(100 + n + d)
        expected = max(0, 2 * d - n)
        hits = sum(
            intersect_stack(random_subspace(n, d, rng).basis[None], random_subspace(n, d, rng).basis[None]).shape[2]
            == expected
            for _ in range(100)
        )
        assert hits >= 99


class TestSubspaceInvariants:
    def test_basis_orthonormality_enforced(self):
        with pytest.raises(InvalidInput):
            Subspace(3, np.column_stack([E3[:, 0], 2 * E3[:, 1]]))

    def test_dim_bounds(self):
        with pytest.raises(InvalidInput):
            Subspace(2, np.eye(3, dtype=complex))  # 3 columns in ambient dim 2
