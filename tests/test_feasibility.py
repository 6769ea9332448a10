import itertools
from functools import partial

import numpy as np
import pytest

from relay_align.errors import InconsistentPairwise, InfeasibleTuple, InvalidInput
from relay_align.feasibility import (
    VERIFY_BLOCK,
    StrategySpec,
    _gaussian_stacks,
    _pairs,
    _verify_stack,
    construct_strategy,
    feasible_variety_dim,
    generic_feasibility_rate,
    is_feasible_tuple,
    paired_pairwise_table,
    sample_generic_strategy,
    strategy_from_pairwise,
    symmetric_pairwise_table,
    verify_strategy,
)
from relay_align.subspace import RaggedRank, orthonormal_basis, orthonormal_stack, split_by_rank

E3 = np.eye(3, dtype=complex)


def span(n, cols):
    return orthonormal_basis(np.eye(n, dtype=complex)[:, cols])


def same_span(a, b):
    return np.linalg.norm(a.basis @ a.basis.conj().T - b.basis @ b.basis.conj().T) < 1e-9


class TestFeasibleTuple:
    @pytest.mark.parametrize(
        "k,n,d,expected",
        [
            (3, 3, (2, 2, 2), True),
            (4, 2, (1, 1, 1, 1), True),
            (2, 3, (4, 2), False),  # d_1 > N despite the sum matching
            (3, 3, (2, 2, 1), False),  # sum is 5, not 6
        ],
    )
    def test_examples(self, k, n, d, expected):
        assert is_feasible_tuple(StrategySpec(k, n, d)) is expected

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            StrategySpec(1, 3, (6,))
        with pytest.raises(InvalidInput):
            StrategySpec(3, 3, (2, 2))


    @pytest.mark.parametrize(
        "k, n, d, pairwise",
        [
            (3, 3, (2.9, 2, 2), None),
            (3, 3, (2, 2, 2), {(0, 1): 1.7, (0, 2): 1, (1, 2): 1}),
            (3.0, 3, (2, 2, 2), None),
            (3, True, (2, 2, 2), None),
            (3, 3, (2, True, 2), None),
        ],
        ids=["float-d", "float-pairwise", "float-K", "bool-N", "bool-d"],
    )
    def test_non_integers_rejected(self, k, n, d, pairwise):
        with pytest.raises(InvalidInput, match="must be integers"):
            StrategySpec(k, n, d, pairwise=pairwise)

    def test_numpy_integers_accepted(self):
        table = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        spec = StrategySpec(np.int64(3), np.int32(3), tuple(np.full(3, 2)), pairwise={**table, (0, 1): np.int64(1)})
        assert spec == StrategySpec(3, 3, (2, 2, 2), pairwise=table)
        assert all(type(x) is int for x in (spec.K, spec.N, *spec.d, *spec.pairwise.values()))


class TestConstructStrategy:
    def test_three_user_plane_strategy(self):
        s = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        assert same_span(s.subspaces[0], span(3, [0, 1]))
        assert same_span(s.subspaces[1], span(3, [2, 0]))
        assert same_span(s.subspaces[2], span(3, [1, 2]))
        assert sorted(v.shape[1] for v in s.pair_bases.values()) == [1, 1, 1]
        assert verify_strategy(s.subspaces, 3).ok
        # the three pair intersections together span all of C^3
        stacked = np.hstack(list(s.pair_bases.values()))
        assert np.linalg.matrix_rank(stacked) == 3

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_two_users_get_whole_space(self, n):
        s = construct_strategy(StrategySpec(2, n, (n, n)))
        assert same_span(s.subspaces[0], span(n, list(range(n))))
        assert same_span(s.subspaces[1], span(n, list(range(n))))

    def test_four_lines_pair_up(self):
        s = construct_strategy(StrategySpec(4, 2, (1, 1, 1, 1)))
        rep = verify_strategy(s.subspaces, 2)
        assert rep.ok
        dims = s.pair_dims()
        lines = [p for p, w in dims.items() if w == 1]
        assert len(lines) == 2  # two distinct shared lines, each for one pair
        b = np.hstack([s.pair_bases[p] for p in lines])
        assert np.linalg.matrix_rank(b) == 2

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTuple):
            construct_strategy(StrategySpec(3, 3, (2, 2, 1)))

    def test_zero_dim_user_allowed(self):
        s = construct_strategy(StrategySpec(3, 1, (1, 1, 0)))
        assert s.subspaces[2].d == 0
        assert verify_strategy(s.subspaces, 1).ok


class TestVerifyStrategy:
    def test_three_plane_example(self):
        cand = [span(3, [0, 1]), span(3, [1, 2]), span(3, [0, 2])]
        rep = verify_strategy(cand, 3)
        assert rep.ok
        assert rep.worst_triple_dim == 0
        assert all(v == 1 for v in rep.pair_dims.values())

    def test_coincident_planes_fail(self):
        plane = span(3, [0, 1])
        rep = verify_strategy([plane, plane, plane], 3)
        assert not rep.ok
        assert rep.worst_triple_dim == 2
        assert "global" in " ".join(rep.failed_conditions())

    def test_construct_then_verify_sweep(self):
        for k in range(2, 6):
            for n in range(1, 5):
                for d in range(0, n + 1):
                    spec = StrategySpec(k, n, (d,) * k)
                    if is_feasible_tuple(spec):
                        s = construct_strategy(spec)
                        assert verify_strategy(s.subspaces, n).ok, (k, n, d)

    @pytest.mark.parametrize("k,n", [(3, 3), (8, 16), (16, 32)])
    def test_construct_report_fields(self, k, n):
        spec = StrategySpec(k, n, (2 * n // k,) * k)
        s = construct_strategy(spec)
        rep = verify_strategy(s.subspaces, n)
        assert rep.ok and rep.global_ok
        assert rep.dims == spec.d
        assert rep.pair_dims == s.pair_dims()
        assert rep.per_user_ok == (True,) * k
        assert rep.worst_triple_dim == 0

    def test_dimension_bookkeeping(self):
        # for a verified strategy, sum d_i = 2 * dim of the pairwise direct sum
        for spec in [StrategySpec(3, 3, (2, 2, 2)), StrategySpec(4, 5, (5, 3, 1, 1))]:
            s = construct_strategy(spec)
            rep = verify_strategy(s.subspaces, spec.N)
            assert rep.ok
            assert sum(spec.d) == 2 * sum(rep.pair_dims.values())


class TestGenericSampling:
    def test_three_user_generic_always_feasible(self):
        spec = StrategySpec(3, 3, (2, 2, 2))
        rng = np.random.default_rng(2024)
        assert generic_feasibility_rate(spec, 100, rng) == 1.0

    def test_four_lines_generic_never_feasible(self):
        spec = StrategySpec(4, 2, (1, 1, 1, 1))
        rng = np.random.default_rng(2024)
        # oracle: four random lines in C^2 are pairwise distinct a.s., so every
        # pairwise intersection is zero-dimensional and condition (ii) fails
        cand = sample_generic_strategy(spec, rng)
        rep = verify_strategy(cand, 2)
        assert all(v == 0 for v in rep.pair_dims.values())
        assert generic_feasibility_rate(spec, 100, rng) == 0.0

    def test_whole_space_trivially_ok(self):
        spec = StrategySpec(2, 4, (4, 4))
        rng = np.random.default_rng(1)
        assert generic_feasibility_rate(spec, 10, rng) == 1.0


def per_trial_rate(spec, trials, rng):
    """Reference for generic_feasibility_rate: one verify_strategy call per child generator."""
    return sum(verify_strategy(sample_generic_strategy(spec, c), spec.N).ok for c in rng.spawn(trials)) / trials


class TestBatchedGenericity:
    @pytest.mark.parametrize(
        "k,n,d",
        [
            (3, 3, (2, 2, 2)),
            (4, 4, (2, 2, 2, 2)),
            (3, 4, (3, 3, 2)),
            (5, 5, (2,) * 5),
            (2, 3, (3, 3)),
            (3, 2, (2, 2, 0)),
        ],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_trial_reference(self, k, n, d, seed):
        spec = StrategySpec(k, n, d)
        rate = generic_feasibility_rate(spec, 20, np.random.default_rng(seed))
        assert rate == per_trial_rate(spec, 20, np.random.default_rng(seed))

    def test_draws_equal_per_trial_bases(self):
        spec = StrategySpec(4, 3, (2, 0, 3, 1))
        stacks = _gaussian_stacks(spec.N, spec.d, np.random.default_rng(4).spawn(5))
        for t, child in enumerate(np.random.default_rng(4).spawn(5)):
            for stack, sub in zip(stacks, sample_generic_strategy(spec, child)):
                assert np.array_equal(orthonormal_stack(stack)[t], sub.basis)

    def test_several_blocks(self):
        spec = StrategySpec(3, 3, (2, 2, 2))
        trials = VERIFY_BLOCK + 7
        rate = generic_feasibility_rate(spec, trials, np.random.default_rng(8))
        assert rate == per_trial_rate(spec, trials, np.random.default_rng(8)) == 1.0

    def test_ragged_block_splits_by_rank(self):
        spec = StrategySpec(3, 3, (2, 2, 2))
        rng = np.random.default_rng(3)
        cands = [sample_generic_strategy(spec, rng) for _ in range(4)]
        cands[2][1] = cands[2][0]  # users 1 and 2 share a plane in trial 2 only
        bases = [np.stack([c[i].basis for c in cands]) for i in range(3)]
        with pytest.raises(RaggedRank):
            _verify_stack(bases, 3, triples=True)
        v = split_by_rank(partial(_verify_stack, n=3, triples=True), bases)
        for t, cand in enumerate(cands):
            ref = verify_strategy(cand, 3)
            assert v.ok[t] == ref.ok
            assert dict(zip(_pairs(3), v.pair_dims[t].tolist())) == ref.pair_dims
            assert tuple(v.per_user_ok[t].tolist()) == ref.per_user_ok
            assert v.global_ok[t] == ref.global_ok
            assert v.worst_triple_dim[t] == ref.worst_triple_dim
        assert v.ok.tolist() == [True, True, False, True]


class TestPairwise:
    def test_symmetric_three_user(self):
        spec = symmetric_pairwise_table(3, 3)
        rng = np.random.default_rng(5)
        s = strategy_from_pairwise(spec, rng)
        assert verify_strategy(s.subspaces, 3).ok
        assert all(b.shape[1] == 1 for b in s.pair_bases.values())

    def test_paired_lines(self):
        spec = paired_pairwise_table(4, 2)
        assert spec.pairwise == {(0, 1): 1, (0, 2): 0, (0, 3): 0, (1, 2): 0, (1, 3): 0, (2, 3): 1}
        rng = np.random.default_rng(6)
        s = strategy_from_pairwise(spec, rng)
        rep = verify_strategy(s.subspaces, 2)
        assert rep.ok
        assert rep.pair_dims[(0, 1)] == 1 and rep.pair_dims[(2, 3)] == 1

    def test_six_users_three_lines(self):
        spec = paired_pairwise_table(6, 3)
        rng = np.random.default_rng(7)
        s = strategy_from_pairwise(spec, rng)
        # oracle: three random lines in C^3 are in direct sum a.s.
        lines = np.hstack([s.pair_bases[(i, i + 1)] for i in (0, 2, 4)])
        assert np.linalg.matrix_rank(lines) == 3
        assert verify_strategy(s.subspaces, 3).ok

    def test_pair_dims_exact(self):
        rng = np.random.default_rng(8)
        spec = symmetric_pairwise_table(3, 6)
        s = strategy_from_pairwise(spec, rng)
        rep = verify_strategy(s.subspaces, 6)
        assert rep.pair_dims == spec.pairwise

    def test_inconsistent_row_sum_rejected(self):
        with pytest.raises(InconsistentPairwise):
            StrategySpec(3, 3, (2, 2, 2), pairwise={(0, 1): 2, (0, 2): 1, (1, 2): 1})

    def test_non_integral_symmetric_rejected(self):
        with pytest.raises(InconsistentPairwise):
            symmetric_pairwise_table(3, 4)  # d = 8/3 not an integer
        with pytest.raises(InconsistentPairwise):
            symmetric_pairwise_table(4, 4)  # d_ij = 2/3 not an integer

    def test_missing_table_rejected(self):
        with pytest.raises(InconsistentPairwise):
            feasible_variety_dim(StrategySpec(3, 3, (2, 2, 2)))


class TestVarietyDimension:
    def test_symmetric_three_user_formula(self):
        spec = symmetric_pairwise_table(3, 3)
        assert feasible_variety_dim(spec) == 6 == 2 * 3**2 // 3

    def test_paired_formula(self):
        spec = paired_pairwise_table(4, 2)
        assert feasible_variety_dim(spec) == 2 == 2**2 * (4 - 2) // 4

    def test_full_pair_contributes_zero(self):
        spec = StrategySpec(2, 3, (3, 3), pairwise={(0, 1): 3})
        assert feasible_variety_dim(spec) == 0

    @pytest.mark.parametrize("n", [3, 6, 9, 12, 30])
    def test_two_thirds_square(self, n):
        assert feasible_variety_dim(symmetric_pairwise_table(3, n)) == 2 * n * n // 3


class TestEquivalenceSweep:
    def test_construct_succeeds_iff_feasible(self):
        rng = np.random.default_rng(99)
        tuples = [
            (k, n, (d,) * k)
            for k, n in itertools.product(range(2, 7), range(1, 7))
            for d in range(0, n + 1)
        ]
        for _ in range(50):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 7))
            tuples.append((k, n, tuple(int(x) for x in rng.integers(0, n + 1, k))))
        for k, n, d in tuples:
            spec = StrategySpec(k, n, d)
            if is_feasible_tuple(spec):
                s = construct_strategy(spec)
                assert verify_strategy(s.subspaces, n).ok, (k, n, d)
            else:
                with pytest.raises(InfeasibleTuple):
                    construct_strategy(spec)


# every (K, N) with K <= 5 and N <= 3, and with K <= 4 and N = 4
TABLE_SHAPES = [(k, n) for k in range(2, 6) for n in range(1, 4)] + [(k, 4) for k in range(2, 5)]


def consistent_tables(k, n):
    """Every pairwise table d_ij >= 0 of K users whose entries sum to N.

    These are the tables of feasible tuples: the row sums d_i then total 2N
    and none exceeds N.  Stars and bars: the cut positions split N into the
    K(K-1)/2 pair dimensions.
    """
    pairs = _pairs(k)
    for cuts in itertools.combinations(range(n + len(pairs) - 1), len(pairs) - 1):
        edges = (-1, *cuts, n + len(pairs) - 1)
        yield dict(zip(pairs, (b - a - 1 for a, b in zip(edges, edges[1:]))))


class TestEveryPairwiseTable:
    def test_every_table_realised(self):
        rng = np.random.default_rng(0)
        count = 0
        for k, n in TABLE_SHAPES:
            for table in consistent_tables(k, n):
                d = tuple(sum(v for p, v in table.items() if i in p) for i in range(k))
                s = strategy_from_pairwise(StrategySpec(k, n, d, pairwise=table), rng)
                report = verify_strategy(s.subspaces, n)
                assert report.ok and report.pair_dims == table, (k, n, table)
                count += 1
        assert count == 532

    @pytest.mark.parametrize("k,n", TABLE_SHAPES)
    def test_feasible_iff_some_table(self, k, n):
        row_sums = {
            tuple(sum(v for p, v in table.items() if i in p) for i in range(k)) for table in consistent_tables(k, n)
        }
        for d in itertools.product(range(n + 2), repeat=k):
            assert is_feasible_tuple(StrategySpec(k, n, d)) == (d in row_sums), (k, n, d)
