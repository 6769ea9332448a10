import numpy as np
import pytest

from relay_align import subspace
from relay_align.errors import DimensionMismatch, InvalidInput
from relay_align.feasibility import StrategySpec, construct_strategy, generic_feasibility_rate, verify_strategy
from relay_align.relaysim import Constellation, Link, design_encoders, draw_channels, run_monte_carlo
from relay_align.subspace import (
    ABS_RANK_FLOOR,
    BLOCK_ENTRIES,
    RaggedRank,
    blocks,
    intersect_stack,
    is_basis,
    numeric_rank,
    orthonormal_stack,
    rank_threshold,
)
from relay_align.variety import codim_line_probe, determinant_probe, plucker_probe

E3 = np.eye(3, dtype=complex)
E4 = np.eye(4, dtype=complex)


def orthonormal(cols):
    """Orthonormal N x d basis of the column space of one N x m matrix: a stack of one."""
    return orthonormal_stack(np.asarray(cols)[None])[0]


def span(*cols):
    return orthonormal(np.column_stack(cols))


def projector(b):
    """Orthogonal projector onto the span of an orthonormal basis."""
    return b @ b.conj().T


def same_span(a, b):
    return np.linalg.norm(projector(a) - projector(b)) < 1e-9


def span_of_parts(parts):
    """The sum of subspaces: the span of their stacked bases."""
    return orthonormal(np.hstack(parts))


def random_subspace(n, d, rng):
    return orthonormal(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))


def full_svd_intersect(a, b):
    """intersect_stack with the full SVD of [A | -B] whatever its shape; the trials share one rank."""
    stacked = np.concatenate([a, -b], axis=2)
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    r = int(numeric_rank(s, stacked.shape[1:])[0])
    null = vh[:, r:].conj().swapaxes(1, 2)
    return orthonormal_stack(a @ null[:, : a.shape[2]])


def sharing_stack(t, n, da, db, shared, rng):
    """T pairs of random bases of C^n, dims da and db, whose spans share a random `shared`-dim subspace."""
    pairs = []
    for _ in range(t):
        common = rng.standard_normal((n, shared)) + 1j * rng.standard_normal((n, shared))
        own_a = rng.standard_normal((n, da - shared)) + 1j * rng.standard_normal((n, da - shared))
        own_b = rng.standard_normal((n, db - shared)) + 1j * rng.standard_normal((n, db - shared))
        pairs.append((orthonormal(np.hstack([common, own_a])), orthonormal(np.hstack([common, own_b]))))
    return np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs])


def reference_orthonormal_stack(a):
    """orthonormal_stack written out: one SVD of the (T, N, m) stack, truncated to the rank its trials share."""
    if a.shape[2] == 0:
        return a
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    ranks = numeric_rank(s, a.shape[1:])
    assert (ranks == ranks[0]).all()
    return u[..., : ranks[0]]


def reference_intersect_stack(a, b):
    """intersect_stack written out: the null space of [A | -B], mapped through A and orthonormalised."""
    t, n, da = a.shape
    if da == 0 or b.shape[2] == 0:
        return np.zeros((t, n, 0), dtype=np.complex128)
    stacked = np.concatenate([a, -b], axis=2)
    _, s, vh = np.linalg.svd(stacked, full_matrices=n < stacked.shape[2])
    ranks = numeric_rank(s, stacked.shape[1:])
    assert (ranks == ranks[0]).all()
    null = vh[:, ranks[0] :].conj().swapaxes(1, 2)
    return reference_orthonormal_stack(a @ null[:, :da])


def meeting(a, db, shared, rng):
    """A (T, N, db) stack of random orthonormal bases, each sharing a random `shared`-dim subspace with a[t]."""
    t, n, da = a.shape
    mix = rng.standard_normal((t, da, shared)) + 1j * rng.standard_normal((t, da, shared))
    own = rng.standard_normal((t, n, db - shared)) + 1j * rng.standard_normal((t, n, db - shared))
    return orthonormal_stack(np.concatenate([a @ mix, own], axis=2))


class TestOrthonormalBasis:
    def test_identity(self):
        s = orthonormal(E3)
        assert s.shape[1] == 3
        assert np.allclose(projector(s), np.eye(3))

    def test_rank_deficient_columns(self):
        s = orthonormal(np.column_stack([E3[:, 0], 2 * E3[:, 0]]))
        assert s.shape[1] == 1
        assert same_span(s, span(E3[:, 0]))

    def test_random_matrix_rank_matches_singular_value_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        s = orthonormal(a)
        # independent oracle: count singular values of the raw input above threshold
        sv = np.linalg.svd(a, compute_uv=False)
        expected = int(np.sum(sv > rank_threshold(a.shape, sv[0])))
        assert s.shape[1] == expected == 2
        p = projector(s)
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
        assert orthonormal(a).shape[1] == (3 if kept else 2)

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            orthonormal(bad)

    def test_empty_columns(self):
        s = orthonormal(np.zeros((3, 0)))
        assert s.shape[1] == 0


class TestIntersect:
    def test_idempotence(self):
        a = span(E3[:, 0], E3[:, 1])
        assert np.linalg.norm(projector(intersect_stack(a[None], a[None])[0]) - projector(a)) < 1e-9

    def test_adjacent_coordinate_planes(self):
        a = span(E3[:, 0], E3[:, 1])
        b = span(E3[:, 1], E3[:, 2])
        got = intersect_stack(a[None], b[None])[0]
        assert got.shape[1] == 1
        assert np.linalg.norm(projector(got) - projector(E3[:, [1]])) < 1e-9

    def test_generic_planes_in_c4_disjoint(self):
        rng = np.random.default_rng(3)
        a = random_subspace(4, 2, rng)
        b = random_subspace(4, 2, rng)
        # oracle: stacked bases have full rank 4, so the intersection is trivial
        assert np.linalg.matrix_rank(np.hstack([a, b])) == 4
        assert intersect_stack(a[None], b[None]).shape[2] == 0

    def test_generic_planes_in_c3_meet_in_line(self):
        rng = np.random.default_rng(4)
        a = random_subspace(3, 2, rng)
        b = random_subspace(3, 2, rng)
        assert intersect_stack(a[None], b[None]).shape[2] == 1  # e = 2d - N = 1

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect_stack(span(E3[:, 0])[None], orthonormal(E4)[None])

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_subspace(4, 2, rng)[None]
            b = random_subspace(4, 3, rng)[None]
            ab, ba = intersect_stack(a, b)[0], intersect_stack(b, a)[0]
            assert np.linalg.norm(projector(ab) - projector(ba)) < 1e-9

    def test_zero_dimensional_operand(self):
        assert intersect_stack(np.zeros((3, 0), complex)[None], span(E3[:, 0])[None]).shape[2] == 0

    # (N, dA, dB, shared dim): N >= dA + dB computes the thin SVD, N < dA + dB the full one
    @pytest.mark.parametrize(
        "n, da, db, shared",
        [(32, 8, 8, 0), (32, 8, 8, 2), (8, 4, 4, 1), (5, 2, 3, 1), (3, 2, 2, 1), (5, 4, 3, 2), (6, 5, 5, 4)],
    )
    def test_matches_full_svd_reference(self, n, da, db, shared):
        a, b = sharing_stack(6, n, da, db, shared, np.random.default_rng(n * 100 + da * 10 + db))
        got = intersect_stack(a, b)
        assert got.shape == (6, n, max(shared, da + db - n))
        assert np.array_equal(got, full_svd_intersect(a, b))


    # the shapes of the tests above: (N, dA, dB, shared dim) of one pair
    @pytest.mark.parametrize(
        "n, da, db, shared",
        [(3, 2, 2, 2), (3, 2, 2, 1), (4, 2, 2, 0), (4, 2, 3, 1), (3, 0, 1, 0), (3, 1, 0, 0),
         (32, 8, 8, 0), (32, 8, 8, 2), (8, 4, 4, 1), (5, 2, 3, 1), (5, 4, 3, 2), (6, 5, 5, 4)],
    )
    @pytest.mark.parametrize("t", [1, 6])
    def test_bits_equal_one_pair_per_call(self, n, da, db, shared, t):
        rng = np.random.default_rng(n * 1000 + da * 100 + db * 10 + shared)
        a = orthonormal_stack(rng.standard_normal((t, n, da)) + 1j * rng.standard_normal((t, n, da)))
        b = meeting(a, db, shared, rng)
        got = intersect_stack(a, b)
        assert got.shape == (t, n, max(shared, da + db - n))
        assert np.array_equal(got, reference_intersect_stack(a, b))

    def test_row_of_mixed_widths_and_ranks_bits_equal_per_pair(self):
        # partners of widths 0, 2 and 3, and within each width intersections of different dims
        rng = np.random.default_rng(17)
        a = orthonormal_stack(rng.standard_normal((4, 7, 3)) + 1j * rng.standard_normal((4, 7, 3)))
        widths_shared = [(2, 0), (3, 1), (2, 2), (0, 0), (2, 1), (3, 3), (3, 0), (2, 0)]
        for db, shared in widths_shared:
            b = meeting(a, db, shared, rng)
            got = intersect_stack(a, b)
            assert got.shape == (4, 7, shared)
            assert np.array_equal(got, reference_intersect_stack(a, b))

    def test_ragged_pair_of_a_row_raises_its_trial_ranks(self):
        rng = np.random.default_rng(18)
        a = orthonormal_stack(rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2)))
        steady = meeting(a, 2, 1, rng)
        ragged = meeting(a, 2, 0, rng)
        ragged[1] = meeting(a[1:2], 2, 1, rng)[0]  # trial 1 alone meets a in a line
        assert intersect_stack(a, steady).shape == (3, 5, 1)
        with pytest.raises(RaggedRank) as exc:
            intersect_stack(a, ragged)
        assert exc.value.ranks.tolist() == [4, 3, 4]  # rank of [A | -B] per trial


class TestValuesFirst:
    """dA + dB <= N: the singular values of [A | -B] decide an empty intersection before any vector is computed."""

    @pytest.mark.parametrize("n, da, db", [(4, 2, 2), (8, 4, 4), (32, 4, 4), (7, 1, 3)])
    def test_generic_stack_computes_no_vectors(self, monkeypatch, n, da, db):
        rng = np.random.default_rng(n * 100 + da * 10 + db)
        a = orthonormal_stack(rng.standard_normal((5, n, da)) + 1j * rng.standard_normal((5, n, da)))
        b = orthonormal_stack(rng.standard_normal((5, n, db)) + 1j * rng.standard_normal((5, n, db)))
        calls, svd = [], np.linalg.svd  # compute_uv of every SVD call

        def counted(x, *args, **kw):
            calls.append(kw.get("compute_uv", True))
            return svd(x, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", counted)
        got = intersect_stack(a, b)
        assert got.shape == (5, n, 0) and got.dtype == np.complex128
        assert calls == [False]

    @pytest.mark.parametrize("n, floor_rules", [(4, True), (48, False)], ids=["floor", "relative"])
    @pytest.mark.parametrize("factor, dim", [(0.9, 1), (1.1, 0)])
    def test_rank_rule_boundary(self, n, floor_rules, factor, dim):
        # a line of A and one of B at angle theta, the other columns orthogonal to everything, under random
        # unitaries: [A | -B] has singular values sqrt(1 + cos theta), 1, ..., and sigma_min = sqrt(2) sin(theta / 2)
        rng = np.random.default_rng(13)
        da, db = 2, 2
        sigma_max = np.sqrt(2.0)  # to within sigma_min^2, far below the threshold's resolution
        threshold = rank_threshold((n, da + db), sigma_max)
        assert (threshold == ABS_RANK_FLOOR) == floor_rules
        theta = 2 * np.arcsin(factor * threshold / np.sqrt(2))
        tilted = np.zeros((n, db), dtype=complex)
        tilted[0, 0], tilted[da, 0], tilted[da + 1, 1] = np.cos(theta), np.sin(theta), 1
        q, _ = np.linalg.qr(rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n)))
        a, b = q[:, :, :da], q @ tilted
        stacked = np.concatenate([a, -b], axis=2)
        assert np.linalg.svd(stacked, compute_uv=False)[:, -1] == pytest.approx(factor * threshold, rel=1e-2)
        assert intersect_stack(a, b).shape == (3, n, dim)


class TestSumAndDirectSum:
    def test_coordinate_sum_full(self):
        parts = [span(E3[:, i]) for i in range(3)]
        assert same_span(span_of_parts(parts), E3)

    def test_sum_idempotent(self):
        s = span(E3[:, 0])
        assert same_span(span_of_parts([s, s]), s)

    def test_direct_sum_true(self):
        e2 = np.eye(2, dtype=complex)
        parts = [span(e2[:, 0]), span(e2[:, 1])]
        assert span_of_parts(parts).shape[1] == sum(p.shape[1] for p in parts)

    def test_direct_sum_false_on_overcount(self):
        e2 = np.eye(2, dtype=complex)
        parts = [span(e2[:, 0]), span(e2[:, 0] + e2[:, 1]), span(e2[:, 1])]
        assert span_of_parts(parts).shape[1] != sum(p.shape[1] for p in parts)

    def test_empty_list_rejected(self):
        # no parts stack to a matrix with no rows, which has no ambient space
        with pytest.raises(InvalidInput):
            orthonormal(np.zeros((0, 0)))


class TestGrassmannIdentities:
    def test_dimension_identity_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            da = int(rng.integers(0, n + 1))
            db = int(rng.integers(0, n + 1))
            a, b = random_subspace(n, da, rng), random_subspace(n, db, rng)
            lhs = span_of_parts([a, b]).shape[1] + intersect_stack(a[None], b[None]).shape[2]
            assert lhs == a.shape[1] + b.shape[1]

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (6, 4), (5, 3)])
    def test_generic_intersection_law(self, n, d):
        rng = np.random.default_rng(100 + n + d)
        expected = max(0, 2 * d - n)
        hits = sum(
            intersect_stack(random_subspace(n, d, rng)[None], random_subspace(n, d, rng)[None]).shape[2]
            == expected
            for _ in range(100)
        )
        assert hits >= 99


class TestSubspaceInvariants:
    """An orthonormal N x d array is the one subspace type; verify_strategy checks it at the door."""

    def test_basis_orthonormality_enforced(self):
        with pytest.raises(InvalidInput):
            verify_strategy([np.column_stack([E3[:, 0], 2 * E3[:, 1]]), E3[:, [2]]], 3)

    def test_dim_bounds(self):
        with pytest.raises(InvalidInput):
            verify_strategy([np.eye(2, 3, dtype=complex), np.eye(2, dtype=complex)], 2)  # 3 columns in ambient dim 2

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            verify_strategy([np.array([[np.nan], [0.0]]), np.eye(2, dtype=complex)], 2)

    def test_one_dimensional_entry(self):
        with pytest.raises(DimensionMismatch):
            verify_strategy([E3[:, 0], E3], 3)

    def test_wrong_row_count(self):
        with pytest.raises(DimensionMismatch):
            verify_strategy([np.eye(3, dtype=complex), np.eye(2, dtype=complex)], 2)  # eye(3) in ambient dim 2


class TestIsBasis:
    def test_one_verdict_per_matrix(self):
        rng = np.random.default_rng(30)
        stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        stack[2, :, 2] = stack[2, :, 0] - stack[2, :, 1]  # rank 2
        got = is_basis(stack)
        assert got.dtype == bool and got.tolist() == [True, True, False, True]
        assert [bool(is_basis(m[None])[0]) for m in stack] == got.tolist()

    @pytest.mark.parametrize("m", [0, 2, 4])
    def test_other_column_counts_are_no_basis(self, m):
        assert is_basis(np.ones((2, 3, m), dtype=complex)).tolist() == [False, False]

    @pytest.mark.parametrize("factor, ok", [(0.9, False), (1.1, True)])
    def test_rank_rule_decides(self, factor, ok):
        rng = np.random.default_rng(31)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        sigma = factor * rank_threshold((3, 3), 1.0)
        assert is_basis((u @ np.diag([1.0, 0.5, sigma]) @ v)[None]).tolist() == [ok]


class TestBlocks:
    @pytest.mark.parametrize("total, per_item", [(1, 1), (10, 8192), (100, 7), (8192, 1), (5, 0), (20000, 3)])
    def test_slices_tile_the_range(self, total, per_item):
        got = list(blocks(total, per_item))
        step = max(1, BLOCK_ENTRIES // max(1, per_item))
        assert got[0].start == 0 and got[-1].stop == total
        assert all(a.stop == b.start for a, b in zip(got, got[1:]))
        assert all(b.stop - b.start == step for b in got[:-1])
        assert 1 <= got[-1].stop - got[-1].start <= step

    @pytest.mark.parametrize("total, per_item, calls, step", [(100, 8192, 7, 7), (100, 2048, 10, 10), (100, 7, 10, 1170)])
    def test_at_least_one_item_per_call(self, total, per_item, calls, step):
        got = list(blocks(total, per_item, calls))
        assert [b.stop - b.start for b in got] == [step] * (total // step) + [total % step] * (total % step > 0)
        assert got[0].start == 0 and all(a.stop == b.start for a, b in zip(got, got[1:]))

    @pytest.mark.parametrize("total", [0, -3])
    def test_no_items_rejected(self, total):
        with pytest.raises(InvalidInput):
            blocks(total, 5)


def blocked_callers():
    """Output bits and final generator state of each of the five blocked callers, on small inputs."""
    rng = np.random.default_rng(3)
    strategy, channels = construct_strategy(StrategySpec(3, 3, (2, 2, 2))), draw_channels(3, 3, rng)
    errors, hits = run_monte_carlo(Link(strategy, channels, design_encoders(strategy, channels)),
                                   Constellation.qpsk(), [0.1, 0.01], 50, rng)
    got = {"run_monte_carlo": ((errors.tobytes(), hits), rng)}
    rng = np.random.default_rng(4)
    got["generic_feasibility_rate"] = (generic_feasibility_rate(StrategySpec(3, 4, (3, 3, 2)), 20, rng), rng)
    rng = np.random.default_rng(5)
    got["plucker_probe"] = (plucker_probe(4, 2, 9, rng).tobytes(), rng)
    rng = np.random.default_rng(6)
    got["determinant_probe"] = (b"".join(a.tobytes() for a in determinant_probe(9, rng)), rng)
    rng = np.random.default_rng(7)
    got["codim_line_probe"] = (b"".join(a.tobytes() for a in codim_line_probe(rng, 9)), rng)
    return {name: (out, rng.bit_generator.state) for name, (out, rng) in got.items()}


class TestBlockRule:
    # per trial or sample: 6 entries (sweep), 32 (rate), 24 (Plucker), 18 (determinant)
    # and 36 (line); each caller takes one block at the default rule and several at these
    @pytest.mark.parametrize("entries", [1, 40, 150])
    def test_every_blocked_caller_gives_the_same_bits(self, monkeypatch, entries):
        want = blocked_callers()
        monkeypatch.setattr(subspace, "BLOCK_ENTRIES", entries)
        assert len(list(blocks(9, 24))) > 1
        got = blocked_callers()
        for name in want:
            assert got[name] == want[name], name
