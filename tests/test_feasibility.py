import itertools
import re
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from relay_align.errors import (
    DimensionMismatch,
    InconsistentPairwise,
    InfeasibleTuple,
    InvalidInput,
    ResampleExhausted,
    StrategyInvalid,
)
from relay_align import feasibility
from relay_align.cli import main
from relay_align.feasibility import (
    Strategy,
    StrategySpec,
    _pairs,
    _verify_stack,
    construct_strategy,
    feasible_variety_dim,
    generic_feasibility_rate,
    haar_stack,
    is_feasible_tuple,
    paired_pairwise_table,
    sample_generic_strategy,
    strategy_from_pairwise,
    symmetric_pairwise_table,
    verify_strategy,
)
from relay_align.relaysim import ChannelSet, Link
from relay_align.subspace import (
    BLOCK_ENTRIES,
    RaggedRank,
    _complex_gaussian,
    _triple_dim,
    intersect_stack,
    orthonormal_stack,
    split_by_rank,
)

from pair_slices import pair_slices

E3 = np.eye(3, dtype=complex)


def span(n, cols):
    return orthonormal_stack(np.eye(n, dtype=complex)[:, cols][None])[0]


def same_span(a, b):
    return np.linalg.norm(a @ a.conj().T - b @ b.conj().T) < 1e-9


class Verdicts(NamedTuple):
    """The three direct-sum verdicts of T candidates, one row per trial."""

    pair_dims: np.ndarray  # (T, pairs), pairs in _pairs order
    per_user_ok: np.ndarray  # (T, K), condition (ii)
    global_ok: np.ndarray  # (T,), condition (iii)

    @property
    def ok(self) -> np.ndarray:
        return self.per_user_ok.all(axis=1) & self.global_ok


def reference_verify_stack(bases, n):
    """All three checks, (ii) included: one intersect_stack call per pair and one orthonormal_stack call per user.

    Stricter than a rank test of (ii): a user whose intersections add up to
    its rank must also hold their span, to a residual norm below 1e-9.
    _verify_stack leaves (ii) out, since sum(d_i) = 2N and (iii) imply it.
    """
    k, t = len(bases), bases[0].shape[0]
    inter = {(i, j): intersect_stack(bases[i], bases[j]) for i, j in _pairs(k)}
    pair_dims = [b.shape[2] for b in inter.values()]
    per_user = np.zeros((t, k), dtype=bool)
    for i in range(k):
        parts = [inter[min(i, j), max(i, j)] for j in range(k) if j != i]
        total = orthonormal_stack(np.concatenate(parts, axis=2))
        if total.shape[2] == sum(p.shape[2] for p in parts) == bases[i].shape[2]:
            resid = total - bases[i] @ (bases[i].conj().swapaxes(1, 2) @ total)
            per_user[:, i] = np.linalg.norm(resid, axis=(1, 2)) < 1e-9
    global_total = orthonormal_stack(np.concatenate(list(inter.values()), axis=2))
    global_ok = global_total.shape[2] == sum(pair_dims) == n
    return Verdicts(np.tile(pair_dims, (t, 1)), per_user, np.full(t, global_ok))


def relay_map_ok(s):
    """Whether the basis test Strategy.relay_map passes; its inverse must then undo the pair frame."""
    try:
        p = s.relay_map()
    except StrategyInvalid:
        return False
    frame = np.hstack(list(s.pair_bases.values()))
    assert np.linalg.norm(p @ frame - np.eye(s.spec.N)) < 1e-9
    return True


def stacked_verdicts(bases, n):
    """_verify_stack's pair dims (T, pairs) and global verdict (T,), as split_by_rank concatenates them."""
    inter, basis = _verify_stack(bases)
    return np.tile([b.shape[2] for b in inter.values()], (len(basis), 1)), basis


def reference_gaussian_stacks(n, dims, t, rng):
    """Complex Gaussian (t, n, d) stacks, one per d in dims, in the genericity layout.

    Row r of one standard_normal((t, 2, n * sum(dims))) draw holds the trial's
    n sum(dims) real parts and then its imaginary parts, each split by user in
    order: the values the r-th of t successive sample_generic_strategy(spec,
    rng) calls draw.
    """
    raw = rng.standard_normal((t, 2, n * sum(dims)))
    values = np.empty((t, n * sum(dims)), dtype=np.complex128)
    values.real, values.imag = raw[:, 0], raw[:, 1]
    return split_draw(values, n, dims)


def split_draw(raw, n, dims):
    """The (t, n, d) stacks of a (t, sum(n * d)) drawer array whose block i holds user i's n x d_i matrix."""
    ends = itertools.accumulate(n * d for d in dims)
    return [raw[:, e - n * d : e].reshape(len(raw), n, d) for d, e in zip(dims, ends)]


def assert_same_verdicts(bases, n):
    """_verify_stack's pair dims and global verdict are the reference's, and with sum(d_i) = 2N they make its ok."""
    got, want = stacked_verdicts(bases, n), reference_verify_stack(bases, n)
    for g, w in zip(got, (want.pair_dims, want.global_ok)):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.array_equal((sum(b.shape[2] for b in bases) == 2 * n) & got[1], want.ok)


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
        assert s.subspaces[2].shape[1] == 0
        assert verify_strategy(s.subspaces, 1).ok


class TestStrategyLayout:
    @pytest.mark.parametrize("key", [(0, 7), (1, 1), (1, 0), (0, 3), (-1, 2), "0-1"])
    def test_bad_pair_key_rejected(self, key):
        # (0, 7) and (1, 1) once verified and then widened user 2's interference space; (1, 0) merged with (0, 1)
        s = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        with pytest.raises(InvalidInput, match=re.escape(repr(key))):
            Strategy(spec=s.spec, pair_bases={**s.pair_bases, key: np.eye(3, dtype=complex)[:, [0]]})

    def test_pair_basis_must_be_a_matrix(self):
        with pytest.raises(DimensionMismatch, match=r"\(3,\)"):
            Strategy(spec=StrategySpec(2, 3, (3, 3)), pair_bases={(0, 1): np.ones(3)})

    def test_omitted_pair_is_an_empty_block(self):
        s = construct_strategy(StrategySpec(4, 5, (5, 3, 1, 1)))
        t = Strategy(spec=s.spec, pair_bases={p: b for p, b in s.pair_bases.items() if b.shape[1]})
        assert list(t.pair_bases) == _pairs(4)
        assert t.pair_dims() == s.pair_dims() and 0 in t.pair_dims().values()
        assert t.pair_bases[1, 2].shape == (5, 0)
        assert pair_slices(t) == pair_slices(s)
        for a, b in zip(t.user_bases, s.user_bases):
            assert np.array_equal(a, b)
        omitted = [b for p, b in t.pair_bases.items() if not b.shape[1]]
        assert len(omitted) == 3 and all(b is omitted[0] and not b.flags.writeable for b in omitted)

    def test_blocks_are_checked_in_pair_order(self):
        bad = np.full((3, 1), np.nan, dtype=complex)
        with pytest.raises(InvalidInput, match=re.escape("pair basis 1-3: basis contains non-finite")):
            Strategy(spec=StrategySpec(3, 3, (2, 2, 2)), pair_bases={(1, 2): bad, (0, 2): bad})


class TestRelayMap:
    """The basis test of Strategy.relay_map decides what verify_strategy decides."""

    @pytest.mark.parametrize(
        "spec, pair_bases",
        [
            (StrategySpec(3, 3, (2, 2, 2)), {(0, 1): E3[:, [0]], (0, 2): E3[:, [1]], (1, 2): E3[:, [0]]}),
            (StrategySpec(4, 3, (2, 2, 1, 1)), {(0, 1): E3[:, [0, 1]], (2, 3): (E3[:, [0]] + E3[:, [1]]) / np.sqrt(2)}),
            (StrategySpec(3, 3, (2, 2, 2)), {(0, 1): E3[:, [0]], (0, 2): E3[:, [1]], (1, 2): E3[:, [2, 0]]}),
            (StrategySpec(3, 3, (2, 2, 2)), {(0, 1): E3[:, [0]], (0, 2): E3[:, [1]]}),
        ],
        ids=["repeated-block", "inside-another-pair-span", "widths-past-n", "widths-short-of-n"],
    )
    def test_failing_strategies(self, spec, pair_bases):
        s = Strategy(spec=spec, pair_bases=pair_bases)
        assert not verify_strategy(s.subspaces, spec.N).ok
        assert not relay_map_ok(s)

    def test_widths_must_match_the_declared_d(self):
        # the frame [e1 e2 | e3] is a basis of C^3, but users 0, 1 and 2 get 3, 2 and 1 streams, not d = (2, 2, 2)
        s = Strategy(spec=StrategySpec(3, 3, (2, 2, 2)), pair_bases={(0, 1): E3[:, [0, 1]], (0, 2): E3[:, [2]]})
        with pytest.raises(StrategyInvalid, match=r"widths \(3, 2, 1\) differ from the declared d=\(2, 2, 2\)"):
            s.relay_map()
        with pytest.raises(StrategyInvalid, match="declared"):
            Link(s, ChannelSet(K=3, N=3, H=[E3] * 3, G=[E3] * 3), s.user_bases)

    @pytest.mark.parametrize("d", [(2, 2, 2), (5, 3, 1, 1), (4,) * 16])
    def test_constructed_strategies(self, d):
        s = construct_strategy(StrategySpec(len(d), sum(d) // 2, d))
        assert verify_strategy(s.subspaces, s.spec.N).ok and relay_map_ok(s)


class TestVerifyStrategy:
    def test_three_plane_example(self):
        cand = [span(3, [0, 1]), span(3, [1, 2]), span(3, [0, 2])]
        rep = verify_strategy(cand, 3)
        assert rep.ok
        assert rep.worst_triple_dim == 0
        assert all(v == 1 for v in rep.pair_dims.values())

    def test_ok_report_skips_triple_scan(self, monkeypatch):
        calls, intersect = [], feasibility.intersect_stack
        monkeypatch.setattr(feasibility, "intersect_stack", lambda a, b: calls.append((a, b)) or intersect(a, b))
        rep = verify_strategy(construct_strategy(StrategySpec(4, 4, (2, 2, 2, 2))).subspaces, 4)
        assert rep.ok and rep.worst_triple_dim == 0
        assert len(calls) == 4 * 3 // 2  # the pair intersections, and no triple

    @pytest.mark.parametrize("outside", range(4))
    def test_triple_scan_reuses_the_right_pair(self, outside):
        # in C^4, span{e1, e2, e3} and span{e3, e4} twice share only e3; span{e1, e2} meets the first in a
        # plane and each triple through it in 0: the worst pair (2) is above the only nonzero triple (1)
        inside = [span(4, [0, 1, 2]), span(4, [2, 3]), span(4, [2, 3])]
        cand = inside[:outside] + [span(4, [0, 1])] + inside[outside:]
        rep = verify_strategy(cand, 4)
        triples = [_triple_dim(*(b[None] for b in abc)) for abc in itertools.combinations(cand, 3)]
        assert sorted(triples) == [0, 0, 0, 1] and max(rep.pair_dims.values()) == 2
        assert not rep.ok and rep.worst_triple_dim == max(triples) == 1

    def test_per_user_verdict_fails_one_user(self):
        # V_0 = span{e1, e2} meets V_1 = span{e1, e3} in e1 and V_2 = span{e3} in 0, so only V_0 does not split
        # into its pair intersections; V_1 = e1 + e3 and V_2 = e3 do
        rep = verify_strategy([span(3, [0, 1]), span(3, [0, 2]), span(3, [2])], 3)
        assert not rep.ok
        assert rep.per_user_ok == (False, True, True)
        assert rep.pair_dims == {(0, 1): 1, (0, 2): 0, (1, 2): 1}

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


def per_trial_rate(spec, trials, rng, draw=sample_generic_strategy):
    """Reference for generic_feasibility_rate: one verify_strategy call per successive draw(spec, rng)."""
    return sum(verify_strategy(draw(spec, rng), spec.N).ok for _ in range(trials)) / trials


def feasible_shapes(max_k, max_n):
    """Every feasible (K, N, d), 2 <= K <= max_k, 1 <= N <= max_n, with d sorted descending and zero widths allowed."""
    return [
        (k, n, d)
        for k in range(2, max_k + 1)
        for n in range(1, max_n + 1)
        for d in itertools.combinations_with_replacement(range(n, -1, -1), k)
        if sum(d) == 2 * n
    ]


class TestGenericVerdict:
    @pytest.mark.parametrize(
        "k, n, d, dims, generic",
        [
            (3, 3, (2, 2, 2), [1, 1, 1], True),
            (4, 4, (2, 2, 2, 2), [0] * 6, False),  # the benchmark's rate-0 shape
            (3, 4, (3, 3, 2), [2, 1, 1], True),
            (4, 5, (3, 3, 2, 2), [1, 0, 0, 0, 0, 0], False),
            (3, 3, (2, 2, 1), [1, 0, 0], False),  # sum(d) != 2N
            (2, 3, (4, 2), [3], False),  # d_0 > N: the count is formal, and the tuple is not feasible
        ],
    )
    def test_examples(self, k, n, d, dims, generic):
        e, verdict = feasibility.generic_verdict(StrategySpec(k, n, d))
        assert e == dict(zip(_pairs(k), dims))
        assert verdict is generic

    @pytest.mark.parametrize("k, n", [(200, 150), (300, 299), (500, 250)])
    def test_row_sums_match_an_outer_sum_at_hundreds_of_users(self, k, n):
        # e_ij and the verdict against numpy's K x K outer sum of d: a generic shape, whose row sums
        # all equal d, so a wrong one flips the verdict, with its user of N streams first, last and
        # anywhere, so each row sum gathers its e_ij as the first and as the second user of the
        # pair; then 2N spread over the users at random
        rng = np.random.default_rng(k)
        generic = np.zeros(k, dtype=int)
        generic[: n + 1] = [n] + [1] * n  # e_0j = 1 for each of the N users of one stream, every other e_ij 0
        verdicts = []
        for d in (generic, generic[::-1], rng.permutation(generic), rng.multinomial(2 * n, np.full(k, 1 / k))):
            outer = np.maximum(0, np.add.outer(d, d) - n)
            np.fill_diagonal(outer, 0)
            i, j = np.triu_indices(k, 1)
            generic_want = d.sum() == 2 * n and d.max() <= n and np.array_equal(outer.sum(axis=1), d)
            e, verdict = feasibility.generic_verdict(StrategySpec(k, n, tuple(d.tolist())))
            assert e == dict(zip(zip(i.tolist(), j.tolist()), outer[i, j].tolist())), (k, n)
            assert verdict is bool(generic_want), (k, n)
            verdicts.append(verdict)
        assert verdicts == [True, True, True, False]

    def test_rate_is_the_verdict_on_every_small_shape(self):
        # 143 shapes; a generic shape verifies on every draw and any other on none
        shapes = feasible_shapes(5, 6)
        assert len(shapes) == 143
        for k, n, d in shapes:
            spec = StrategySpec(k, n, d)
            rate = generic_feasibility_rate(spec, 3, np.random.default_rng(k * 100 + n))
            assert rate == float(feasibility.generic_verdict(spec)[1]), (k, n, d)


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
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert generic_feasibility_rate(spec, 20, got_rng) == per_trial_rate(spec, 20, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_draws_equal_per_trial_bases(self):
        # the rate's draw of 5 trials, one drawer row of N sum(d_i) each, against the
        # genericity layout and against five sample_generic_strategy calls
        spec = StrategySpec(4, 3, (2, 0, 3, 1))
        got_rng, layout_rng, want_rng = (np.random.default_rng(4) for _ in range(3))
        stacks = feasibility._gaussian_tuples(spec, 5, got_rng)
        for stack, layout in zip(stacks, reference_gaussian_stacks(spec.N, spec.d, 5, layout_rng)):
            assert np.asarray(stack).tobytes() == layout.tobytes()
        for t in range(5):
            for stack, sub in zip(stacks, sample_generic_strategy(spec, want_rng)):
                assert np.array_equal(orthonormal_stack(stack)[t], sub)
        # the block draws no more than the loop
        assert got_rng.bit_generator.state == want_rng.bit_generator.state == layout_rng.bit_generator.state

    def test_several_blocks(self):
        spec = StrategySpec(3, 3, (2, 2, 2))
        trials = BLOCK_ENTRIES // (3 * 6) + 7  # a block holds BLOCK_ENTRIES // (N sum(d_i)) trials
        rate = generic_feasibility_rate(spec, trials, np.random.default_rng(8))
        assert rate == per_trial_rate(spec, trials, np.random.default_rng(8)) == 1.0

    def test_a_wide_block_holds_one_trial_per_kernel_call(self, monkeypatch):
        # N sum(d_i) = 2048 entries a trial gives BLOCK_ENTRIES // 2048 = 4 trials, fewer than the
        # K(K + 1)/2 = 10 stacked calls a block makes, so a block holds 10 trials
        spec, counts = StrategySpec(4, 32, (16,) * 4), []

        def counted(rng, rows, size, variance):
            counts.append(rows)
            return _complex_gaussian(rng, rows, size, variance)

        with monkeypatch.context() as m:
            m.setattr(feasibility, "_complex_gaussian", counted)
            rate = generic_feasibility_rate(spec, 25, np.random.default_rng(2))
        assert BLOCK_ENTRIES // (32 * 64) < 10 and counts == [10, 10, 5]
        assert rate == per_trial_rate(spec, 25, np.random.default_rng(2))

    def test_ragged_block_splits_by_rank(self):
        spec = StrategySpec(3, 3, (2, 2, 2))
        rng = np.random.default_rng(3)
        cands = [sample_generic_strategy(spec, rng) for _ in range(4)]
        cands[2][1] = cands[2][0]  # users 1 and 2 share a plane in trial 2 only
        bases = [np.stack([c[i] for c in cands]) for i in range(3)]
        with pytest.raises(RaggedRank):
            _verify_stack(bases)
        pair_dims, basis = split_by_rank(partial(stacked_verdicts, n=3), bases)
        for t, cand in enumerate(cands):
            ref = verify_strategy(cand, 3)
            assert basis[t] == ref.ok == ref.global_ok
            assert dict(zip(_pairs(3), pair_dims[t].tolist())) == ref.pair_dims
        assert basis.tolist() == [True, True, False, True]
        want = split_by_rank(partial(reference_verify_stack, n=3), bases)
        assert np.array_equal(pair_dims, want.pair_dims) and np.array_equal(basis, want.ok)

    def test_ragged_block_through_the_rate(self, monkeypatch):
        # trial 2 draws users 0 and 1 from one Gaussian sample, so V_0 = V_1 in that trial only
        spec, trials, equal = StrategySpec(3, 3, (2, 2, 2)), 5, 2
        blocks = []

        def equal_users(rng, rows, size, variance):
            raw = _complex_gaussian(rng, rows, size, variance)
            raw[equal, 6:12] = raw[equal, :6]  # user 1's 3 x 2 draw is user 0's
            blocks.append(raw)
            return raw

        with monkeypatch.context() as m:  # the reference draws through the same drawer, so it runs unpatched
            m.setattr(feasibility, "_complex_gaussian", equal_users)
            rate = generic_feasibility_rate(spec, trials, np.random.default_rng(5))
        with pytest.raises(RaggedRank):
            _verify_stack([orthonormal_stack(g) for g in split_draw(blocks[0], spec.N, spec.d)])
        trial = iter(range(trials))

        def draw(spec, rng):
            cand = sample_generic_strategy(spec, rng)
            if next(trial) == equal:
                cand[1] = cand[0]
            return cand

        assert rate == per_trial_rate(spec, trials, np.random.default_rng(5), draw) == (trials - 1) / trials


class TestStackedVerifier:
    """_verify_stack's pair dims and basis verdict on stacks of T candidates against the reference's three checks."""

    @pytest.mark.parametrize("d", [(5, 3, 1, 1), (1, 5, 3, 1), (3, 1, 5, 1)])
    def test_ragged_widths(self, d):
        spec = StrategySpec(4, 5, d)
        assert_same_verdicts([b[None] for b in construct_strategy(spec).subspaces], 5)
        stacks = reference_gaussian_stacks(5, d, 8, np.random.default_rng(sum(d) * d[0]))
        assert_same_verdicts([orthonormal_stack(g) for g in stacks], 5)

    def test_ragged_widths_from_a_pairwise_table(self):
        table = {(0, 1): 3, (0, 2): 1, (0, 3): 1, (1, 2): 0, (1, 3): 0, (2, 3): 0}
        s = strategy_from_pairwise(StrategySpec(4, 5, (5, 3, 1, 1), pairwise=table), np.random.default_rng(6))
        assert_same_verdicts([b[None] for b in s.subspaces], 5)

    @pytest.mark.parametrize(
        "k,n,d", [(4, 2, (1, 1, 1, 1)), (4, 4, (2, 2, 2, 2)), (5, 5, (2,) * 5), (3, 4, (3, 3, 3)), (6, 6, (3, 2, 2, 2, 2, 1))]
    )
    def test_failing_haar_candidates(self, k, n, d):
        rng = np.random.default_rng(k * 10 + n)
        for _ in range(5):
            cand = sample_generic_strategy(StrategySpec(k, n, d), rng)
            assert not verify_strategy(cand, n).ok
            assert_same_verdicts([b[None] for b in cand], n)
        assert_same_verdicts([orthonormal_stack(g) for g in reference_gaussian_stacks(n, d, 16, rng)], n)

    def test_coordinate_strategy_wide(self):
        s = construct_strategy(StrategySpec(16, 32, (4,) * 16))
        assert_same_verdicts([b[None] for b in s.subspaces], 32)

    def test_subspaces_bits_equal_one_call_per_user(self):
        table = {(0, 1): 3, (0, 2): 1, (0, 3): 1, (1, 2): 0, (1, 3): 0, (2, 3): 0}
        s = strategy_from_pairwise(StrategySpec(4, 5, (5, 3, 1, 1), pairwise=table), np.random.default_rng(9))
        for got, b in zip(s.subspaces, s.user_bases):
            assert np.array_equal(got, orthonormal_stack(b[None])[0])


class TestOneVerdict:
    """sum(d_i) = 2N and the global verdict (iii) decide what the reference's three checks decide."""

    @pytest.mark.parametrize(
        "k,n,d",
        [
            (3, 3, (2, 2, 2)), (3, 4, (3, 3, 2)), (4, 3, (2, 0, 3, 1)),  # rate 1
            (4, 2, (1, 1, 1, 1)), (4, 4, (2, 2, 2, 2)), (5, 5, (2,) * 5),  # rate 0
            (3, 3, (2, 2, 1)), (3, 4, (3, 3, 3)), (4, 3, (3, 3, 3, 0)), (2, 3, (3, 1)),  # sum(d_i) != 2N
        ],
    )
    def test_haar_draws(self, k, n, d):
        rng = np.random.default_rng(100 * k + n)
        bases = [orthonormal_stack(g) for g in reference_gaussian_stacks(n, d, 24, rng)]
        assert_same_verdicts(bases, n)
        want = reference_verify_stack(bases, n)
        for t in range(3):  # verify_strategy's T = 1 path, and the per-user verdicts a failing report prints
            rep = verify_strategy([b[t] for b in bases], n)
            assert rep.ok == want.ok[t] and rep.per_user_ok == tuple(want.per_user_ok[t].tolist())
        rate = generic_feasibility_rate(StrategySpec(k, n, d), 24, np.random.default_rng(100 * k + n))
        assert rate == want.ok.mean()

    @pytest.mark.parametrize("d", [(2, 2, 2), (5, 3, 1, 1), (3, 2, 2, 2, 2, 1), (8,) * 8, (4,) * 16])
    def test_constructed_strategies(self, d):
        n = sum(d) // 2
        subspaces = construct_strategy(StrategySpec(len(d), n, d)).subspaces
        assert_same_verdicts([b[None] for b in subspaces], n)
        subspaces[-1] = haar_stack(n, d[-1], 1, np.random.default_rng(n))[0]  # one user leaves the strategy
        assert_same_verdicts([b[None] for b in subspaces], n)

    def test_pairwise_draws_half_dependent(self):
        rng = np.random.default_rng(7)
        tables = list(consistent_tables(4, 4))
        for draw in range(24):
            table = tables[int(rng.integers(len(tables)))]
            d = tuple(sum(v for p, v in table.items() if i in p) for i in range(4))
            s = strategy_from_pairwise(StrategySpec(4, 4, d, pairwise=table), rng)
            dependent = draw % 2 == 1
            if dependent:  # one column of a block moves into the span of the other blocks
                pair = max(s.pair_bases, key=lambda p: (s.pair_bases[p].shape[1], p))
                block = s.pair_bases[pair]
                others = np.hstack([b for p, b in s.pair_bases.items() if p != pair])
                col = others @ (rng.standard_normal(others.shape[1]) + 1j * rng.standard_normal(others.shape[1]))
                moved = orthonormal_stack(np.hstack([col[:, None], block[:, 1:]])[None])[0]
                s = Strategy(s.spec, {**s.pair_bases, pair: moved})
            bases = [b[None] for b in s.subspaces]
            assert_same_verdicts(bases, 4)
            assert bool(reference_verify_stack(bases, 4).ok[0]) == relay_map_ok(s) == (not dependent)

    def test_basis_of_intersections_is_not_enough(self):
        # users 1-2, 3-4 and 5-6 share the lines e1, e2 and e3, a basis of C^3, but V_1 also holds
        # (e2 + e3)/sqrt(2), which no other V_j meets: (iii) holds, (ii) fails for user 1, sum(d_i) = 7
        e = np.eye(3, dtype=complex)
        cand = [span(3, [0]), span(3, [0]), span(3, [1]), span(3, [1]), span(3, [2]), span(3, [2])]
        cand[0] = orthonormal_stack(np.hstack([e[:, [0]], (e[:, [1]] + e[:, [2]]) / np.sqrt(2)])[None])[0]
        rep = verify_strategy(cand, 3)
        assert rep.global_ok and rep.per_user_ok == (False,) + (True,) * 5 and not rep.ok
        assert rep.failed_conditions() == ["per-user direct-sum decomposition (ii)"]
        assert_same_verdicts([b[None] for b in cand], 3)


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

    @pytest.mark.parametrize("key", [(1, 0), "01", 5, (0, 1, 2)])
    def test_bad_key_rejected(self, key):
        # (1, 0) was once sorted into (0, 1), one of the two values dropped; the others raised TypeError
        with pytest.raises(InconsistentPairwise, match=re.escape(repr(key))):
            StrategySpec(3, 3, (2, 2, 2), pairwise={(0, 1): 1, key: 5, (0, 2): 1, (1, 2): 1})

    def test_numpy_integer_keys_accepted(self):
        # the keys are checked against a set of the pairs: a numpy integer hashes and compares as its int
        pairwise = {(np.int64(0), np.int64(1)): 1, (np.intp(0), np.intp(2)): 1, (np.int32(1), np.int32(2)): 1}
        spec = StrategySpec(3, 3, (2, 2, 2), pairwise=pairwise)
        assert spec.pairwise == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    @pytest.mark.parametrize("key", [(0, 3), (np.int64(2), np.int64(1)), (np.int64(0), 1, 2)])
    def test_bad_key_message(self, key):
        with pytest.raises(InconsistentPairwise) as raised:
            StrategySpec(3, 3, (2, 2, 2), pairwise={(0, 1): 1, key: 0, (0, 2): 1, (1, 2): 1})
        assert str(raised.value) == f"pairwise key {key!r} is not (i, j) with 0 <= i < j < K=3"

    def test_non_integral_symmetric_rejected(self):
        with pytest.raises(InconsistentPairwise):
            symmetric_pairwise_table(3, 4)  # d = 8/3 not an integer
        with pytest.raises(InconsistentPairwise):
            symmetric_pairwise_table(4, 4)  # d_ij = 2/3 not an integer

    def test_missing_table_rejected(self):
        with pytest.raises(InconsistentPairwise):
            feasible_variety_dim(StrategySpec(3, 3, (2, 2, 2)))


def repeat_pair_blocks(monkeypatch, degenerate):
    """Make the first `degenerate` draws of a three-pair table repeat their first pair block as their second.

    Every call still draws from the generator, so the stream is unchanged;
    a repeated block makes the pair frame singular.  Returns the blocks the
    calls gave, in call order.
    """
    real, given = feasibility.haar_stack, []

    def draw(n, d, count, rng):
        block = real(n, d, count, rng)
        if len(given) % 3 == 1 and len(given) // 3 < degenerate:  # a degenerate draw's second block
            block = given[-1]
        given.append(block)
        return block

    monkeypatch.setattr(feasibility, "haar_stack", draw)
    return given


class TestResample:
    SPEC = symmetric_pairwise_table(3, 3)  # d = 2,2,2, every pair of width 1

    def test_degenerate_draw_is_drawn_again(self, monkeypatch):
        given = repeat_pair_blocks(monkeypatch, 1)
        s = strategy_from_pairwise(self.SPEC, np.random.default_rng(5))
        assert len(given) == 6
        rng = np.random.default_rng(5)
        want = [haar_stack(3, 1, 1, rng)[0] for _ in range(6)][3:]  # the second draw's three pair blocks
        assert all(np.array_equal(got, w) for got, w in zip(s.pair_bases.values(), want, strict=True))
        s.relay_map()  # raises StrategyInvalid unless the pair frame is a basis

    def test_every_draw_degenerate_raises(self, monkeypatch):
        given = repeat_pair_blocks(monkeypatch, feasibility.MAX_ATTEMPTS)
        with pytest.raises(ResampleExhausted, match=f"no verifying draw in {feasibility.MAX_ATTEMPTS} attempts"):
            strategy_from_pairwise(self.SPEC, np.random.default_rng(5))
        assert len(given) == 3 * feasibility.MAX_ATTEMPTS

    def test_construct_exits_2_and_writes_nothing(self, monkeypatch, tmp_path, capsys):
        repeat_pair_blocks(monkeypatch, feasibility.MAX_ATTEMPTS)
        dij = tmp_path / "dij.json"
        dij.write_text('{"1-2": 1, "1-3": 1, "2-3": 1}')
        argv = ["construct", "-K", "3", "-N", "3", "-d", "2,2,2", "--dij", str(dij), "--seed", "0"]
        assert main([*argv, "-o", str(tmp_path / "s.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: no verifying draw in 10 attempts")
        assert list(tmp_path.iterdir()) == [dij]

    def test_construct_names_the_pairs_by_their_keys(self, monkeypatch, tmp_path, capsys):
        # the message once printed the spec's repr, pairs as 0-based tuples
        repeat_pair_blocks(monkeypatch, feasibility.MAX_ATTEMPTS)
        dij = tmp_path / "dij.json"
        dij.write_text('{"1-2": 1, "1-3": 1, "2-3": 1}')
        assert main(["construct", "-K", "3", "-N", "3", "-d", "2,2,2", "--dij", str(dij)]) == 2
        assert capsys.readouterr() == (
            "", "error: no verifying draw in 10 attempts for K=3, N=3, d_ij={'1-2': 1, '1-3': 1, '2-3': 1}\n"
        )


class TestLibraryRefusals:
    """Each refusal raises its type with its message, and one given a generator refuses before drawing."""

    def test_verify_strategy_needs_two_bases(self):
        with pytest.raises(InvalidInput, match="need at least two subspaces"):
            verify_strategy([E3], 3)

    def test_haar_stack_dimension_past_n(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(InvalidInput, match=re.escape("need n >= 1 and 0 <= d <= n, got n=3, d=4")):
            haar_stack(3, 4, 1, rng)
        assert rng.bit_generator.state == before

    def test_variety_dim_pair_dimension_past_n(self):
        with pytest.raises(InconsistentPairwise, match="a pairwise dimension exceeds N"):
            feasible_variety_dim(StrategySpec(2, 3, (4, 4), pairwise={(0, 1): 4}))

    @pytest.mark.parametrize(
        "k, n, message", [(3, 3, "pairing requires an even user count"), (4, 3, "2N/K = 6/4 is not an integer")]
    )
    def test_paired_table_shape(self, k, n, message):
        with pytest.raises(InconsistentPairwise, match=re.escape(message)):
            paired_pairwise_table(k, n)

    @pytest.mark.parametrize(
        "call, spec, message",
        [
            (partial(generic_feasibility_rate, trials=0), StrategySpec(3, 3, (2, 2, 2)), "trials must be >= 1"),
            (partial(generic_feasibility_rate, trials=5), StrategySpec(2, 3, (4, 2)), "per-user dimension exceeds"),
            (sample_generic_strategy, StrategySpec(2, 3, (4, 2)), "per-user dimension exceeds"),
        ],
        ids=["rate-no-trials", "rate-dimension-past-n", "sample-dimension-past-n"],
    )
    def test_sampler_refuses_before_drawing(self, call, spec, message):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(InvalidInput, match=message):
            call(spec, rng=rng)
        assert rng.bit_generator.state == before


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
                assert relay_map_ok(s), (k, n, table)
                assert_same_verdicts([b[None] for b in s.subspaces], n)
                count += 1
        assert count == 532

    @pytest.mark.parametrize("k,n", TABLE_SHAPES)
    def test_feasible_iff_some_table(self, k, n):
        row_sums = {
            tuple(sum(v for p, v in table.items() if i in p) for i in range(k)) for table in consistent_tables(k, n)
        }
        for d in itertools.product(range(n + 2), repeat=k):
            assert is_feasible_tuple(StrategySpec(k, n, d)) == (d in row_sums), (k, n, d)
