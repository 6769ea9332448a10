import copy
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from relay_align.errors import (
    DimensionMismatch,
    InvalidInput,
    SecrecyViolation,
    SingularChannel,
    StrategyInvalid,
)
from relay_align.feasibility import (
    Strategy,
    StrategySpec,
    construct_strategy,
    generic_feasibility_rate,
    haar_stack,
    paired_pairwise_table,
    sample_generic_strategy,
    strategy_from_pairwise,
    symmetric_pairwise_table,
)
from relay_align import cli, feasibility, relaysim, variety
from relay_align.relaysim import (
    ChannelSet,
    Constellation,
    Link,
    design_encoders,
    draw_channels,
    relay_map_success,
    run_monte_carlo,
)
from relay_align.subspace import (
    BLOCK_ENTRIES,
    _complex_gaussian,
    numeric_rank,
    orthonormal_stack,
    rank_threshold,
)
from relay_align.variety import codim_line_probe

from pair_slices import pair_slices

E3 = np.eye(3, dtype=complex)
QPSK = Constellation.qpsk()


def identity_channels(k, n):
    eye = np.eye(n, dtype=complex)
    return ChannelSet(K=k, N=n, H=[eye] * k, G=[eye] * k)


def link_of(strategy, channels):
    return Link(strategy, channels, design_encoders(strategy, channels))


def decode_by_partner(link, k, x):
    """Hard QPSK decisions of receiver k from the noiseless symbols x, split into the blocks its partners sent."""
    hard = QPSK.points[QPSK.nearest_index(x[link.sent[link.rows[k]]])]
    return {j: hard[rows] for (i, j), rows in pair_slices(link.strategy).items() if i == k}


def scalar_link(h1, h2, g1, g2):
    """The two-user, one-antenna link: the relay sees x1 + x2 through H_i U_i = 1."""
    strategy = construct_strategy(StrategySpec(2, 1, (1, 1)))
    ch = ChannelSet(K=2, N=1, H=[np.array([[h1]]), np.array([[h2]])], G=[np.array([[g1]]), np.array([[g2]])])
    return link_of(strategy, ch)


def worked_example_strategy():
    """The worked three-user plane strategy with shared basis vectors v1, v2, v3.

    Pair bases: users {1,2} share v2, users {1,3} share v1, users {2,3} share v3
    (0-indexed pairs (0,1) -> e2, (0,2) -> e1, (1,2) -> e3).
    """
    spec = StrategySpec(3, 3, (2, 2, 2))
    pair_bases = {(0, 1): E3[:, [1]], (0, 2): E3[:, [0]], (1, 2): E3[:, [2]]}
    return Strategy(spec=spec, pair_bases=pair_bases)


def worked_example_encoders():
    """Encoders mapping user i's columns to (v_i, v_{i+1 mod 3}) under identity channels."""
    return [E3[:, [0, 1]], E3[:, [1, 2]], E3[:, [2, 0]]]


class TestDrawChannels:
    def test_all_invertible(self):
        ch = draw_channels(3, 3, np.random.default_rng(0))
        for m in [*ch.H, *ch.G]:
            assert numeric_rank(np.linalg.svd(m, compute_uv=False), m.shape) == 3

    def test_deterministic_under_seed(self):
        a = draw_channels(4, 2, np.random.default_rng(5))
        b = draw_channels(4, 2, np.random.default_rng(5))
        for x, y in zip([*a.H, *a.G], [*b.H, *b.G]):
            assert np.array_equal(x, y)

    def test_shapes(self):
        ch = draw_channels(3, 3, np.random.default_rng(1))
        assert ch.H.shape == ch.G.shape == (3, 3, 3)
        assert ch.H.dtype == ch.G.dtype == np.complex128
        assert np.allclose(ch.h_norm, [np.linalg.norm(h, 2) for h in ch.H])  # ChannelSet's SVD, kept for Link

    @pytest.mark.parametrize("k, n", [(2, 2), (3, 3), (4, 2), (16, 32)])
    def test_draw_equals_successive_complex_gaussian_draws(self, k, n):
        # the stream contract the simulate goldens rest on
        for seed in range(4):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            ch = draw_channels(k, n, got_rng)
            want = np.stack([reference_complex_gaussian(want_rng, (n, n), 1.0) for _ in range(2 * k)])
            assert ch.redraws == 0
            assert np.array_equal(bits(np.concatenate([ch.H, ch.G])), bits(want))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_singular_draw_raises_after_one_draw(self):
        # a draw is used once: its SingularChannel is ChannelSet's own, and nothing is drawn again
        rng = ZeroingGenerator(7, zeroed=1)
        with pytest.raises(SingularChannel, match="^H_1 is singular$"):
            draw_channels(3, 3, rng)
        assert rng.calls == 1

    def test_redraws_is_a_constant_not_a_field(self):
        # the benchmark's tracer reads redraws off every draw_channels result; nothing else does
        assert "redraws" not in {f.name for f in dataclasses.fields(ChannelSet)}
        assert draw_channels(3, 3, np.random.default_rng(0)).redraws == ChannelSet.redraws == 0
        with pytest.raises(TypeError, match="redraws"):
            ChannelSet(K=2, N=1, H=[np.eye(1)] * 2, G=[np.eye(1)] * 2, redraws=0)

    def test_simulate_exits_2_on_a_singular_draw(self, monkeypatch, tmp_path, capsys):
        rng = ZeroingGenerator(0, zeroed=1)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)  # the generator cmd_simulate seeds with 0
        argv = ["simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "10", "--seed", "0"]
        assert cli.main([*argv, "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", "error: H_1 is singular\n")
        assert list(tmp_path.iterdir()) == [] and rng.calls == 1


class ZeroingGenerator:
    """A generator whose first `zeroed` standard_normal draws come back with their first 3 x 3 matrix zero."""

    def __init__(self, seed, zeroed):
        self.rng = np.random.default_rng(seed)
        self.zeroed = zeroed
        self.calls = 0

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        if self.calls < self.zeroed:
            out[: 2 * 3 * 3] = 0  # the real and imaginary normals of the first matrix
        self.calls += 1
        return out


class TestChannelSet:
    def test_channels_are_read_only(self):
        ch = draw_channels(3, 3, np.random.default_rng(0))
        for stack in (ch.H, ch.G):
            with pytest.raises(ValueError, match="read-only"):
                stack[0][:] = 0

    def test_holds_a_copy_of_hand_built_matrices(self):
        eye = np.eye(3, dtype=complex)
        ch = ChannelSet(K=3, N=3, H=[eye] * 3, G=[eye] * 3)
        eye[:] = 0
        assert np.array_equal(ch.H, np.stack([np.eye(3)] * 3)) and np.array_equal(ch.G, ch.H)

    @pytest.mark.parametrize("k, n", [(1, 3), (0, 3), (3, 0)])
    def test_needs_two_users_and_one_antenna(self, k, n):
        with pytest.raises(InvalidInput, match="need K >= 2 users and N >= 1 antennas"):
            ChannelSet(K=k, N=n, H=[np.eye(n)] * k, G=[np.eye(n)] * k)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"channel matrix shape \(3, 2\)"):
            ChannelSet(K=2, N=3, H=[E3, np.ones((3, 2))], G=[E3, E3])
        with pytest.raises(DimensionMismatch, match="one H and one G per user"):
            ChannelSet(K=3, N=3, H=[E3] * 3, G=[E3] * 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_nonfinite_entry_rejected(self, value):
        m = E3.copy()
        m[1, 2] = value
        with pytest.raises(InvalidInput, match="non-finite"):
            ChannelSet(K=3, N=3, H=[E3] * 3, G=[E3, E3, m])


class TestDesignEncoders:
    def test_identity_channels_reproduce_pair_blocks(self):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        enc = design_encoders(strategy, identity_channels(3, 3))
        for i in range(3):
            assert np.allclose(enc[i], strategy.user_bases[i])

    def test_pair_columns_agree_through_random_channels(self):
        rng = np.random.default_rng(2)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 6), rng)
        ch = draw_channels(3, 6, rng)
        enc = design_encoders(strategy, ch)
        eff = [ch.H[i] @ enc[i] for i in range(3)]
        slices = pair_slices(strategy)
        for (i, j), b in strategy.pair_bases.items():
            ci = eff[i][:, slices[i, j]]
            cj = eff[j][:, slices[j, i]]
            assert np.linalg.norm(ci - b) < 1e-9
            assert np.linalg.norm(cj - b) < 1e-9

    @pytest.mark.parametrize("k, n", [(3, 4), (4, 3)])
    def test_channel_set_of_another_shape_rejected(self, k, n):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        enc = design_encoders(strategy, identity_channels(3, 3))
        with pytest.raises(DimensionMismatch, match="channel set does not match strategy shape"):
            design_encoders(strategy, identity_channels(k, n))
        with pytest.raises(DimensionMismatch, match="channel set does not match strategy shape"):
            Link(strategy, identity_channels(k, n), enc)

    def test_singular_channel_rejected(self):
        # ChannelSet decides the H_i invertible, so a singular one never reaches design_encoders
        h = [np.zeros((3, 3))] + [E3] * 2
        with pytest.raises(SingularChannel, match="H_1 is singular"):
            ChannelSet(K=3, N=3, H=h, G=[E3] * 3)


class TestRelayObserve:
    def test_zero_symbols_zero_noise(self):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        enc = design_encoders(strategy, ch)
        r = Link(strategy, ch, enc).observe(np.zeros(6))
        assert np.allclose(r, 0)

    def test_worked_example_pairwise_sums(self):
        ch = identity_channels(3, 3)
        link = Link(worked_example_strategy(), ch, worked_example_encoders())
        x = [np.array([1 + 0j, 1j]), np.array([-1 + 0j, -1j]), np.array([1j, -1 + 0j])]
        r = link.observe(np.concatenate(x))
        expected = np.array([x[0][0] + x[2][1], x[0][1] + x[1][0], x[1][1] + x[2][0]])
        assert np.linalg.norm(r - expected) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = draw_channels(3, 3, rng)
        link = Link(strategy, ch, design_encoders(strategy, ch))
        x = np.concatenate([rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)])
        y = np.concatenate([rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)])
        lhs = link.observe(x + y)
        rhs = link.observe(x) + link.observe(y)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_shape_mismatch(self):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        link = Link(strategy, ch, design_encoders(strategy, ch))
        with pytest.raises(DimensionMismatch, match="symbol shape"):
            link.observe(np.zeros((5, 4)))  # the symbol array needs Σd = 6 rows
        with pytest.raises(DimensionMismatch, match="symbol shape"):
            link.observe(np.zeros((6, 4, 1)))


def reference_secrecy_audit(encoders, channels, strategy):
    """The greedy column match Link's alignment check replaced: True iff the relay sees only masked pair sums.

    Every pair-basis column must match (to within 1e-9, absolute) an unclaimed
    relay-side column H_i U_i of both users of the pair, every relay-side
    column must be claimed, and the pair frame must be a basis.
    """
    effective = [h @ u for h, u in zip(channels.H, encoders)]
    claimed = [np.zeros(m.shape[1], dtype=bool) for m in effective]
    for (i, j), b in strategy.pair_bases.items():
        for col in b.T:
            for user in (i, j):
                dist = np.where(claimed[user], np.inf, np.linalg.norm(effective[user] - col[:, None], axis=0))
                if not dist.size or dist.min() > 1e-9:
                    return False
                claimed[user][dist.argmin()] = True
    try:
        strategy.relay_map()
    except StrategyInvalid:
        return False
    return all(c.all() for c in claimed)


def audit_passes(strategy, channels, encoders):
    try:
        Link(strategy, channels, encoders)
    except SecrecyViolation:
        return False
    return True


def secrecy_cases():
    """(name, strategy, channels, encoders): the clean and perturbed systems both audits are asked about.

    The clean cases of TestSecrecyAudit and acceptance criterion 5 (same
    seeds, same draws), the worked example, K=16 N=32 over random channels,
    and one-entry encoder perturbations of 1e-2, 1e-3 and 1e-6 of each.
    """
    clean = []
    for seed in (4, 5):
        rng = np.random.default_rng(seed)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 3), rng)
        ch = draw_channels(3, 3, rng)
        clean.append((f"symmetric-seed{seed}", strategy, ch, design_encoders(strategy, ch)))
    shapes = [
        symmetric_pairwise_table(3, 3),
        symmetric_pairwise_table(3, 6),
        paired_pairwise_table(4, 2),
        paired_pairwise_table(6, 3),
    ]
    rng = np.random.default_rng(5005)
    for round_idx in range(50):
        spec = shapes[round_idx % len(shapes)]
        strategy = strategy_from_pairwise(spec, rng)
        ch = draw_channels(spec.K, spec.N, rng)
        clean.append((f"criterion5-{round_idx}", strategy, ch, design_encoders(strategy, ch)))
    clean.append(("worked-example", worked_example_strategy(), identity_channels(3, 3), worked_example_encoders()))
    wide = construct_strategy(StrategySpec(16, 32, (4,) * 16))
    for seed in range(10):
        ch = draw_channels(16, 32, np.random.default_rng(seed))
        clean.append((f"wide-seed{seed}", wide, ch, design_encoders(wide, ch)))
    cases = list(clean)
    rng = np.random.default_rng(17)
    for name, strategy, ch, enc in clean:
        for delta in (1e-2, 1e-3, 1e-6):
            bad = [u.copy() for u in enc]
            user = int(rng.integers(strategy.spec.K))
            row, col = rng.integers(bad[user].shape[0]), rng.integers(bad[user].shape[1])
            bad[user][row, col] += delta
            cases.append((f"{name}-{delta:g}", strategy, ch, bad))
    return cases


class TestSecrecyAudit:
    def test_verified_strategy_passes(self):
        rng = np.random.default_rng(4)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 3), rng)
        ch = draw_channels(3, 3, rng)
        worst = link_of(strategy, ch).secrecy_residual
        assert 0 <= worst <= rank_threshold((3, 2), 1.0)

    def test_perturbed_encoder_fails(self):
        rng = np.random.default_rng(5)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 3), rng)
        ch = draw_channels(3, 3, rng)
        enc = design_encoders(strategy, ch)
        enc[0][:, 0] += 1e-2
        with pytest.raises(SecrecyViolation, match="user 1"):
            Link(strategy, ch, enc)

    def test_worked_example_passes_with_permuted_columns(self):
        # the cyclic column order differs from the ascending-partner layout;
        # each column only has to select a distinct slot of its user, and the
        # decoders' gather follows the columns, not the slots' order
        link = Link(worked_example_strategy(), identity_channels(3, 3), worked_example_encoders())
        assert link.secrecy_residual == 0
        assert link.sent.tolist() == [2, 5, 1, 4, 0, 3]
        assert link.summed.tolist() == [[1, 0, 3], [2, 5, 4]]

    def test_unmasked_symbol_fails(self):
        # user 1 sends both streams on its first pair's slot: one symbol reaches the relay outside any pair sum
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        enc = [b.copy() for b in strategy.user_bases]
        enc[0] = E3[:, [0, 0]]
        with pytest.raises(SecrecyViolation, match="user 1: relay-side columns do not select"):
            Link(strategy, identity_channels(3, 3), enc)

    @pytest.mark.parametrize("factor, passes", [(0.9, True), (1.1, False)])
    def test_off_slot_entry_follows_the_rank_threshold(self, factor, passes):
        # P = I and identity channels, so M_0 = U_0 = [e1, e2] plus eps at the
        # off-slot row 3: sigma_max(R_0) = eps, against the threshold of
        # sigma_max(P) sigma_max(H_0) sigma_max(U_0) ~ 1, where the absolute
        # floor rules; the greedy reference, with its absolute 1e-9, passes both
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        enc = design_encoders(strategy, ch)
        eps = factor * rank_threshold((3, 2), 1.0)
        enc[0][2, 0] = eps
        assert reference_secrecy_audit(enc, ch, strategy)
        assert np.array_equal(strategy.relay_map(), np.eye(3))
        if passes:
            assert Link(strategy, ch, enc).secrecy_residual == pytest.approx(eps, rel=1e-12)
        else:
            with pytest.raises(SecrecyViolation, match="user 1: residual"):
                Link(strategy, ch, enc)

    def test_verdicts_match_the_reference(self):
        cases = secrecy_cases()
        verdicts = {name: audit_passes(s, ch, enc) for name, s, ch, enc in cases}
        assert verdicts == {name: reference_secrecy_audit(enc, ch, s) for name, s, ch, enc in cases}
        clean = [name for name in verdicts if not name.endswith(("-0.01", "-0.001", "-1e-06"))]
        assert len(clean) == 63 and all(verdicts[name] for name in clean)
        assert not any(verdicts[name] for name in verdicts if name not in clean)

    @pytest.mark.parametrize("seed", [79, 449, 1527])
    def test_rounding_of_ill_conditioned_channels_passes(self, seed):
        # max cond(H_i) is 9.1e3 to 3.8e4 in these K=16 draws, and designed
        # encoders leave a residual of 1.0e-12 to 3.9e-12: rounding, not a
        # leak, past the absolute floor a threshold scaled by sigma_max(M_i) ~ 1
        # would apply, within the one scaled by the rounding of P H_i U_i
        strategy = construct_strategy(StrategySpec(16, 32, (4,) * 16))
        link = link_of(strategy, draw_channels(16, 32, np.random.default_rng(seed)))
        assert rank_threshold((32, 4), 1.0) < link.secrecy_residual < 4e-12

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("row, col", [(2, 0), (0, 1)])
    def test_nonfinite_encoder_rejected_by_link(self, row, col, value):
        # a NaN at (2, 0) made the audit's SVD fail to converge, one at (0, 1)
        # raised SecrecyViolation by accident; Link now refuses both, as
        # ChannelSet refuses non-finite channels
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        enc = design_encoders(strategy, ch)
        enc[0][row, col] = value
        with pytest.raises(InvalidInput, match="encoder has non-finite entries"):
            Link(strategy, ch, enc)

    @pytest.mark.parametrize("shape", [(3, 1), (3, 3), (2, 2)])
    def test_encoder_of_the_wrong_shape_rejected_by_link(self, shape):
        # user 2's encoder (list index 1) fills its d_2 = 2 columns of the stacked encoder map;
        # any other width would shift every later user's columns
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        enc = design_encoders(strategy, ch)
        enc[1] = np.ones(shape, dtype=complex)
        with pytest.raises(DimensionMismatch, match="encoder 2 has shape"):
            Link(strategy, ch, enc)

    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_number_of_encoders_rejected_by_link(self, count):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        enc = design_encoders(strategy, ch)
        with pytest.raises(DimensionMismatch, match="need one encoder per user"):
            Link(strategy, ch, (enc + enc)[:count])

    @pytest.mark.parametrize("factor, valid", [(0.9, False), (1.1, True)])
    def test_stacked_rank_follows_tolerance(self, factor, valid):
        # stacked pair bases [e1, e2, (e1 + s e3)/|.|] have singular values
        # about sqrt(2), 1 and s/sqrt(2); put the last at factor times the
        # rank_threshold, whose absolute floor rules at this scale
        sigma = factor * rank_threshold((3, 3), np.sqrt(2))
        s = sigma * np.sqrt(2)
        b23 = (E3[:, [0]] + s * E3[:, [2]]) / np.sqrt(1 + s * s)
        strategy = Strategy(
            spec=StrategySpec(3, 3, (2, 2, 2)), pair_bases={(0, 1): E3[:, [0]], (0, 2): E3[:, [1]], (1, 2): b23}
        )
        stacked = np.hstack([E3[:, [0, 1]], b23])
        assert np.linalg.svd(stacked, compute_uv=False)[-1] == pytest.approx(sigma, rel=1e-3)
        assert np.linalg.matrix_rank(stacked) == 3  # numpy's default rule calls both full rank
        ch = identity_channels(3, 3)
        enc = design_encoders(strategy, ch)
        if valid:
            assert Link(strategy, ch, enc).secrecy_residual <= rank_threshold((3, 2), 1.0)
        else:
            with pytest.raises(StrategyInvalid, match="not a basis"):
                Link(strategy, ch, enc)


class TestReceiverDecode:
    def test_worked_example_all_users(self):
        strategy = worked_example_strategy()
        ch = identity_channels(3, 3)
        link = Link(strategy, ch, worked_example_encoders())
        x = [np.array([1, 1j]), np.array([-1, -1j]), np.array([1j, -1])]
        xs = np.concatenate(x)
        # user 1 recovers x2^1 (on v2) and x3^2 (on v1)
        res0 = decode_by_partner(link, 0, xs)
        assert res0[1][0] == x[1][0]
        assert res0[2][0] == x[2][1]
        # user 2 recovers x1^2 (on v2) and x3^1 (on v3)
        res1 = decode_by_partner(link, 1, xs)
        assert res1[0][0] == x[0][1]
        assert res1[2][0] == x[2][0]
        # user 3 recovers x1^1 (on v1) and x2^2 (on v3)
        res2 = decode_by_partner(link, 2, xs)
        assert res2[0][0] == x[0][0]
        assert res2[1][0] == x[1][1]

    def test_noiseless_random_setup_exact(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 6), rng)
            ch = draw_channels(3, 6, rng)
            link = link_of(strategy, ch)
            x = [QPSK.points[rng.integers(0, 4, 4)] for _ in range(3)]
            slices = pair_slices(strategy)
            for k in range(3):
                for j, got in decode_by_partner(link, k, np.concatenate(x)).items():
                    sent = x[j][slices[j, k]]
                    assert np.allclose(got, sent)

    def test_batched_decode_matches_single_trials(self):
        rng = np.random.default_rng(12)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 6), rng)
        ch = draw_channels(3, 6, rng)
        link = link_of(strategy, ch)
        x = np.concatenate([QPSK.points[rng.integers(0, 4, (4, 5))] for _ in range(3)])
        # all the noise as the decoders see it: Σd = 12 entries per trial
        w = 0.1 * (rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5)))
        block = x[link.sent] + link.noise_factor_all @ w
        assert block.shape == (12, 5)
        for t in range(5):
            single = x[:, t][link.sent] + link.noise_factor_all @ w[:, t]
            assert np.linalg.norm(single - block[:, t]) < 1e-12

    @pytest.mark.parametrize("d", [(2, 2, 2), (3, 3, 2, 2), (2, 2, 0), (4, 2, 1, 1)])
    def test_all_receivers_at_once_equal_each_receiver(self, d):
        # row block k of the stacked estimates, the gather plus the noise factor, is receiver k's
        # rows of the relay map applied to r, less what k's own symbols put there; its noise is
        # its rows of noise_factor_all applied to all of w, as the relay's noise reaches every receiver
        rng = np.random.default_rng(14)
        spec = StrategySpec(len(d), sum(d) // 2, d)
        link = link_of(construct_strategy(spec), draw_channels(spec.K, spec.N, rng))
        x = [QPSK.points[rng.integers(0, 4, (d_k, 9))] for d_k in d]
        w = rng.standard_normal((sum(d), 9)) + 1j * rng.standard_normal((sum(d), 9))
        r = link.observe(np.vstack(x))
        every = np.vstack(x)[link.sent] + link.noise_factor_all @ w
        assert every.shape == (sum(d), 9)
        for k, rows in enumerate(link.rows):
            folded = link.relay_map[link.strategy.slots[k]]  # F_k G_k
            want = folded @ r + link.noise_factor_all[rows] @ w
            want -= folded @ link.effective_all[:, rows] @ x[k]
            assert np.linalg.norm(every[rows] - want) <= 1e-12 * max(np.linalg.norm(want), 1), (d, k)

    @pytest.mark.parametrize(
        "x",
        [
            np.zeros(5),  # without Σd = 6 rows
            np.zeros((6, 4, 1)),
            [0.0] * 6,
            [np.zeros(2)] * 3,  # one block per user: a list, not the stacked array
            [np.zeros((2, 4)), np.zeros((2, 5)), np.zeros((2, 4))],  # ragged
        ],
        ids=["x-rows", "x-3d", "x-list", "list", "ragged-list"],
    )
    def test_input_not_matching_the_stacked_operator_rejected(self, x):
        # a wrong row count or rank, or a list, is refused before any product is formed
        link = link_of(construct_strategy(StrategySpec(3, 3, (2, 2, 2))), identity_channels(3, 3))
        with pytest.raises(DimensionMismatch, match="shape"):
            link.observe(x)

    def test_unverified_strategy_rejected(self):
        plane = E3[:, [0, 1]]
        bad = Strategy(
            spec=StrategySpec(3, 3, (2, 2, 2)),
            pair_bases={(0, 1): plane[:, [0]], (0, 2): plane[:, [1]], (1, 2): plane[:, [0]]},
        )
        ch = identity_channels(3, 3)
        with pytest.raises(StrategyInvalid):
            Link(bad, ch, [plane] * 3)


def interference_blocks(strategy, k):
    """The pair blocks not involving user k, side by side: a basis of k's interference space I_k."""
    return np.hstack([b for p, b in strategy.pair_bases.items() if k not in p])


def reference_decode(link, k, y_tilde, x_k):
    """Receiver k's decoder before the receive map, kept as its reference.

    Subtract k's own signal G_k H_k U_k x_k, project off the image G_k I_k of
    k's interference space (P_k), then apply the pseudo-inverse of P_k G_k B_k.
    """
    g, strategy = link.channels.G[k], link.strategy
    gik = orthonormal_stack((g @ interference_blocks(strategy, k))[None])[0]

    def project_off(x):
        return x - gik @ (gik.conj().T @ x)

    decoder = np.linalg.pinv(project_off(g @ strategy.user_bases[k]))
    own_signal = g @ (link.effective_all[:, link.rows[k]] @ np.asarray(x_k, dtype=complex))
    y = np.asarray(y_tilde, dtype=complex) - own_signal
    return decoder @ project_off(y)


def reference_receive_map(link, k):
    """Receiver k's receive map before the pair frame's inverse, kept as its reference.

    The first d_k rows of (G_k [B_k | J_k])^-1, J_k the pair blocks not involving k.
    """
    strategy = link.strategy
    frame = link.channels.G[k] @ np.hstack([strategy.user_bases[k], interference_blocks(strategy, k)])
    return np.linalg.inv(frame)[: strategy.user_bases[k].shape[1]]


def partner_selection(link):
    """The 0/1 Σd x Σd map from every user's symbols to every receiver's estimate rows.

    Row block rows[k] at k's rows of pair {k, j} selects j's rows of the same
    pair, in order: the symbols j sent k, as Link.sent gathers them.
    """
    selection = np.zeros((sum(link.strategy.spec.d),) * 2)
    slices = pair_slices(link.strategy)
    for (k, j), rows in slices.items():
        block = selection[link.rows[k], link.rows[j]]  # a view
        block[rows, slices[j, k]] = np.eye(rows.stop - rows.start)
    return selection


def assert_hand_made_encoders_refused(rng, spec, strategy, ch):
    """Link refuses random N x d_i encoders: the relay would see their symbols outside any pair sum."""
    enc = [rng.standard_normal((spec.N, d)) + 1j * rng.standard_normal((spec.N, d)) for d in spec.d]
    with pytest.raises(SecrecyViolation, match=r"user \d+: (relay-side columns do not select|residual)"):
        Link(strategy, ch, enc)


def random_pairwise_spec(rng):
    """A random consistent pairwise table: K in 3..6 users, N in 3..8 split among the pairs."""
    k, n = int(rng.integers(3, 7)), int(rng.integers(3, 9))
    pairs = list(itertools.combinations(range(k), 2))
    table = dict(zip(pairs, map(int, rng.multinomial(n, np.full(len(pairs), 1 / len(pairs))))))
    d = tuple(sum(v for p, v in table.items() if i in p) for i in range(k))
    return StrategySpec(k, n, d, pairwise=table)


SINGULAR_3X3 = pytest.mark.parametrize(
    "m",
    [np.zeros((3, 3)), np.ones((3, 3)), np.diag([1.0, 1.0, 0.0]), np.outer([1.5, 0.5, 2.5], [0.2, 0.6, 1.4])],
    ids=["zero", "rank-1", "rank-2", "float-rank-1"],  # float-rank-1: LAPACK inverts it, to entries near 2e16
)


class TestReceiveMap:
    @pytest.mark.parametrize("encoders", ["designed", "hand-made"])
    def test_matches_reference_decode(self, encoders):
        rng = np.random.default_rng(31 if encoders == "designed" else 32)
        for _ in range(40):
            spec = random_pairwise_spec(rng)
            strategy = strategy_from_pairwise(spec, rng)
            ch = draw_channels(spec.K, spec.N, rng)
            if encoders == "hand-made":  # the noise maps do not depend on the encoders
                assert_hand_made_encoders_refused(rng, spec, strategy, ch)
                continue
            link = link_of(strategy, ch)
            for k, rows in enumerate(link.rows):
                x = QPSK.points[rng.integers(0, 4, (sum(spec.d), 6))]  # every user's symbols
                w = rng.standard_normal((sum(spec.d), 6)) + 1j * rng.standard_normal((sum(spec.d), 6))
                # w reaches receiver k's rows as its rows of noise_factor_all, whose law
                # test_noise_factor_has_the_receive_map_covariance checks
                noise = link.noise_factor_all[rows] @ w
                r = link.observe(x)
                got, want = x[link.sent[rows]] + noise, reference_decode(link, k, ch.G[k] @ r, x[rows]) + noise
                assert got.shape == want.shape == (spec.d[k], 6)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (spec, k)

    @pytest.mark.parametrize("encoders", ["designed", "hand-made"])
    def test_maps_match_the_reference_frame_inverse(self, encoders):
        rng = np.random.default_rng(41 if encoders == "designed" else 42)
        for _ in range(40):
            spec = random_pairwise_spec(rng)
            strategy = strategy_from_pairwise(spec, rng)
            ch = draw_channels(spec.K, spec.N, rng)
            if encoders == "hand-made":  # the noise maps do not depend on the encoders
                assert_hand_made_encoders_refused(rng, spec, strategy, ch)
                continue
            link = link_of(strategy, ch)
            for k, (g, rows) in enumerate(zip(ch.G, link.rows)):
                # the cross-talk F_k G_k H_i U_i, the other map F_k enters, is test_transfer_map_is_the_partner_selection's
                f = reference_receive_map(link, k)
                want = np.linalg.norm(f @ g, axis=1) ** 2 + np.linalg.norm(f, axis=1) ** 2
                got = link.noise_gain_all[rows]
                assert got.shape == want.shape, (spec, k)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (spec, k)

    def test_noise_gain_is_the_post_decoder_noise_diagonal(self):
        # F_k (G_k z + w) with z, w of unit variance has covariance F_k (G_k G_k^H + I) F_k^H
        rng = np.random.default_rng(33)
        for _ in range(40):
            spec = random_pairwise_spec(rng)
            strategy = strategy_from_pairwise(spec, rng)
            ch = draw_channels(spec.K, spec.N, rng)
            link = link_of(strategy, ch)
            for k, (rows, g) in enumerate(zip(link.rows, ch.G)):
                f, gain = reference_receive_map(link, k), link.noise_gain_all[rows]
                want = np.diag(f @ (g @ g.conj().T + np.eye(spec.N)) @ f.conj().T).real
                assert gain.shape == (spec.d[k],)
                assert np.linalg.norm(gain - want) <= 1e-12 * np.linalg.norm(want), (spec, k)

    @pytest.mark.parametrize("encoders", ["designed", "hand-made"])
    def test_noise_factor_has_the_receive_map_covariance(self, encoders):
        # relay noise z and receiver noise w_k ~ CN(0, I_N) reach the decoders as
        # P[slots_k] z + F_k w_k in block k, of covariance C = Fz Fz^H + (+)_k F_k F_k^H,
        # Fz the stacked F_k G_k; so must L w with w ~ CN(0, I_Σd), L = noise_factor_all
        rng = np.random.default_rng(43 if encoders == "designed" else 44)
        for _ in range(40):
            spec = random_pairwise_spec(rng)
            strategy = strategy_from_pairwise(spec, rng)
            ch = draw_channels(spec.K, spec.N, rng)
            if encoders == "hand-made":  # the noise maps do not depend on the encoders
                assert_hand_made_encoders_refused(rng, spec, strategy, ch)
                continue
            link = link_of(strategy, ch)
            maps = [reference_receive_map(link, k) for k in range(spec.K)]
            relay_path = np.vstack([f @ g for f, g in zip(maps, ch.G)])
            want = relay_path @ relay_path.conj().T
            for f, rows in zip(maps, link.rows):
                want[rows, rows] += f @ f.conj().T
            factor = link.noise_factor_all
            assert factor.shape == (sum(spec.d), sum(spec.d)), spec
            assert np.linalg.norm(factor @ factor.conj().T - want) <= 1e-12 * np.linalg.norm(want), spec
            gains = link.noise_gain_all  # each stream's noise variance per unit var: the diagonal of C
            assert np.linalg.norm(gains - np.diag(want).real) <= 1e-12 * np.linalg.norm(gains), spec

    @pytest.mark.parametrize("encoders", ["designed", "hand-made"])
    def test_transfer_map_is_the_partner_selection(self, encoders):
        # over the shapes of test_noise_factor_has_the_receive_map_covariance:
        # the decoders' gather sent is the 0/1 partner selection, and the reference
        # transfer map, the cross-talk F_k G_k H_i U_i of each block (k, i != k)
        # with each receiver's own block 0, is that selection to the rank rule
        rng = np.random.default_rng(43 if encoders == "designed" else 44)
        zero_width = no_streams = 0
        for _ in range(40):
            spec = random_pairwise_spec(rng)
            strategy = strategy_from_pairwise(spec, rng)
            ch = draw_channels(spec.K, spec.N, rng)
            zero_width += 0 in spec.pairwise.values()
            no_streams += 0 in spec.d
            if encoders == "hand-made":  # a dense transfer map: no gather decodes it
                assert_hand_made_encoders_refused(rng, spec, strategy, ch)
                continue
            link = link_of(strategy, ch)
            selection = partner_selection(link)
            assert np.array_equal(np.eye(sum(spec.d))[link.sent], selection), spec
            transfer = np.vstack([reference_receive_map(link, k) @ g @ link.effective_all for k, g in enumerate(ch.G)])
            for rows in link.rows:
                transfer[rows, rows] = 0
            top, resid = np.linalg.svd(np.stack([transfer, transfer - selection]), compute_uv=False)[:, 0]
            assert resid <= rank_threshold(transfer.shape, top), spec
        assert zero_width and no_streams  # the shapes hold zero-width pairs and users with no streams

    def test_receiver_with_no_streams_has_an_empty_noise_factor(self):
        link = link_of(construct_strategy(StrategySpec(3, 2, (2, 2, 0))), identity_channels(3, 2))
        rows = link.rows[2]
        assert link.noise_factor_all[rows, rows].shape == (0, 0)
        x, w = np.zeros((4, 5)), np.zeros((4, 5))
        assert (x[link.sent[rows]] + link.noise_factor_all[rows] @ w).shape == (0, 5)

    def test_maps_are_d_k_by_n_views_of_the_stacked_maps(self):
        rng = np.random.default_rng(4)
        spec = StrategySpec(4, 5, (2, 3, 3, 2), pairwise={(0, 1): 1, (0, 2): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1})
        strategy = strategy_from_pairwise(spec, rng)
        link = link_of(strategy, draw_channels(4, 5, rng))
        assert link.sent.shape == (10,) and link.noise_factor_all.shape == (10, 10)
        assert link.effective_all.shape == (5, 10)
        assert [(r.start, r.stop) for r in link.rows] == [(0, 2), (2, 5), (5, 8), (8, 10)]
        for d, rows in zip(spec.d, link.rows):
            # receiver k's maps are its row block of the stacked maps, and no
            # receiver's own symbols reach its rows
            assert link.sent[rows].shape == (d,) and link.noise_factor_all[rows].shape == (d, 10)
            assert not ((rows.start <= link.sent[rows]) & (link.sent[rows] < rows.stop)).any()
        # designed encoders send each partner's symbol to the row that decides it;
        # noise_factor_all is not block diagonal, as the relay's noise reaches every receiver
        assert np.array_equal(np.eye(10)[link.sent], partner_selection(link))

    # ChannelSet decides both channel directions by one rank rule, at construction
    @SINGULAR_3X3
    def test_singular_relay_channel_named(self, m):
        with pytest.raises(SingularChannel, match="G_2 is singular"):
            ChannelSet(K=3, N=3, H=[E3] * 3, G=[E3, m.astype(complex), E3])

    @SINGULAR_3X3
    def test_singular_user_channel_named(self, m):
        with pytest.raises(SingularChannel, match="H_2 is singular"):
            ChannelSet(K=3, N=3, H=[E3, m.astype(complex), E3], G=[E3] * 3)

    @pytest.mark.parametrize("direction", ["H", "G"])
    @pytest.mark.parametrize("factor, singular", [(0.9, True), (1.1, False)])
    def test_invertibility_follows_the_rank_threshold(self, factor, singular, direction):
        # diag(1, 1, sigma) has sigma_max 1, whose rank threshold is the absolute floor
        m = np.diag([1, 1, factor * rank_threshold((3, 3), 1.0)]).astype(complex)
        mats = {"H": [E3] * 3, "G": [E3] * 3, direction: [E3, m, E3]}
        if singular:
            with pytest.raises(SingularChannel, match=f"{direction}_2 is singular"):
                ChannelSet(K=3, N=3, **mats)
        else:
            strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
            link = link_of(strategy, ChannelSet(K=3, N=3, **mats))
            assert np.array_equal(np.eye(6)[link.sent], partner_selection(link))


class TestSnr:
    def test_noiseless_is_infinite(self):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        assert link_of(strategy, ch).snr_db(0.0) == [float("inf")] * 3

    def test_worked_example_value(self):
        # G_1 = 2I, other channels identity.  User 1's frame G_1 [B_1 | J_1] is
        # 2 [e2, e1, e3], so F_1 is the rows e2/2 and e1/2 and F_1 G_1 the rows
        # e2 and e1: each stream's noise gain is 1 + 1/4, and at variance 0.1
        # the SNR is 1 / (0.1 * 1.25) = 8, 9.03 dB
        strategy = worked_example_strategy()
        ch = ChannelSet(K=3, N=3, H=[E3] * 3, G=[2 * E3, E3, E3])
        link = Link(strategy, ch, worked_example_encoders())
        assert np.allclose(link.noise_gain_all[link.rows[0]], [1.25, 1.25], rtol=0, atol=1e-15)
        assert abs(link.snr_db(0.1)[0] - 10 * math.log10(8)) < 1e-12

    def test_noise_scaling_homogeneity(self):
        rng = np.random.default_rng(6)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 3), rng)
        link = link_of(strategy, draw_channels(3, 3, rng))
        base = link.snr_db(0.3)
        scaled = link.snr_db(3.0)
        assert all(abs(b - s - 10) < 1e-12 for b, s in zip(base, scaled))

    def test_receiver_with_no_streams(self):
        # user 3 of d = (2, 2, 0) receives nothing: no signal, SNR 0 (-inf
        # dB), except at variance 0, where every receiver's SNR is inf
        link = link_of(construct_strategy(StrategySpec(3, 2, (2, 2, 0))), identity_channels(3, 2))
        assert link.noise_gain_all[link.rows[2]].shape == (0,)
        assert link.snr_db(1.0)[2] == float("-inf")
        assert link.snr_db(0.0)[2] == float("inf")

    @pytest.mark.parametrize("var", [1e-310, 5e-324, 1e308])
    def test_variance_at_the_ends_of_the_float_range(self, var):
        # 1 / (var * gain) overflows at the low end and var * gain at the high
        # end; a difference of logs is finite at both
        link = link_of(construct_strategy(StrategySpec(3, 3, (2, 2, 2))), identity_channels(3, 3))
        assert np.array_equal(link.noise_gain_all, [2.0] * 6)
        assert link.snr_db(var) == pytest.approx([-10 * math.log10(var) - 10 * math.log10(2)] * 3, abs=1e-9)

    @pytest.mark.parametrize("var", [float("nan"), float("inf"), -1e-3])
    def test_rejects_nonfinite_and_negative_variance(self, var):
        link = link_of(construct_strategy(StrategySpec(3, 3, (2, 2, 2))), identity_channels(3, 3))
        with pytest.raises(InvalidInput, match="finite and >= 0"):
            link.snr_db(var)


def reference_map_success_table(constellation):
    """map_success_table as it was: sum t counts iff no earlier sum lies within tol, by a scan of all of them."""
    pts = constellation.points
    sums = (pts[:, None] + pts[None, :]).ravel()
    gaps = np.abs(pts[:, None] - pts[None, :])
    tol = relaysim.SUM_MATCH_TOL * gaps[gaps > 0].min(initial=np.inf)
    first = [not np.any(np.abs(sums[:t] - s) <= tol) for t, s in enumerate(sums)]
    return np.reshape(first, (constellation.size, constellation.size)).astype(float)


def grid_points(m):
    """The m x m grid of unit steps centred on 0, m^2 points whose (2m - 1)^2 distinct sums repeat."""
    g = np.arange(m) - (m - 1) / 2
    return (g[:, None] + 1j * g[None, :]).ravel()


def sixty_four_points(kind, moved):
    """64 zero-mean points: an 8 x 8 grid, a line or a random set, each point moved by up to `moved` per coordinate.

    The grid's and the line's sums repeat, so a move near tol = 1e-9 (the minimum
    gap is about 1) leaves some near repeats within tol and others not, and
    moved chains can join sums that are not within tol of each other.
    """
    rng = np.random.default_rng(27)
    base = {"grid": grid_points(8), "grid of 0.1 steps": 0.1 * grid_points(8), "line": np.arange(64) - 31.5}
    pts = base[kind] if kind in base else rng.standard_normal(64) + 1j * rng.standard_normal(64)
    pts = pts + moved * (rng.uniform(-1, 1, 64) + 1j * rng.uniform(-1, 1, 64))
    return Constellation(pts - pts.mean())


class TestRelayMapSuccess:
    @pytest.mark.parametrize("moved", [0.0, 1e-12, 5e-10, 1e-9, 2e-9, 1e-6])
    @pytest.mark.parametrize("kind", ["grid", "grid of 0.1 steps", "line", "random"])
    def test_table_equals_the_scan_of_every_earlier_sum(self, kind, moved):
        constellation = sixty_four_points(kind, moved)
        assert np.array_equal(constellation.map_success_table, reference_map_success_table(constellation))

    def test_moves_near_tol_merge_some_near_repeats(self):
        # the grid's 225 distinct sums when nothing moves, 2080 unordered pairs when every sum is apart
        counts = [sixty_four_points("grid", moved).map_success_table.sum() for moved in (1e-12, 5e-10, 1e-6)]
        assert counts[0] == 225 and 225 < counts[1] < 2080 and counts[2] == 2080

    def test_a_1024_point_grid_counts_each_distinct_sum_once(self):
        # the scan took about half an hour at 1024 points; one success per distinct sum of the 63 x 63
        constellation = Constellation(grid_points(32))
        table = constellation.map_success_table
        assert table.sum() == 63**2
        assert constellation.map_success_table is table and not table.flags.writeable

    def test_a_sweep_and_its_exact_figure_build_one_table(self, monkeypatch):
        # simulate runs the sweep, then relay_map_success, on one constellation
        build, builds = relaysim.Constellation.__dict__["map_success_table"].func, []
        counted = functools.cached_property(lambda self: builds.append(self) or build(self))
        counted.__set_name__(relaysim.Constellation, "map_success_table")
        monkeypatch.setattr(relaysim.Constellation, "map_success_table", counted)
        constellation = Constellation(grid_points(4))
        seeded_sweep(StrategySpec(3, 3, (2, 2, 2)), constellation, [0.1, 0.01], 20, seed=0)
        relay_map_success(constellation)
        assert len(builds) == 1 and builds[0] is constellation

    def test_qpsk_exact(self):
        frac = relay_map_success(QPSK)
        assert (frac.numerator, frac.denominator) == (9, 16)
        # brute-force oracle
        pts = QPSK.points
        sums = {complex(round((a + b).real, 9) + 1j * round((a + b).imag, 9)) for a, b in itertools.product(pts, pts)}
        assert len(sums) == 9

    def test_zero_sum_coset_has_four_preimages(self):
        pts = QPSK.points
        preimages = [(a, b) for a, b in itertools.product(pts, pts) if abs(a + b) < 1e-12]
        assert len(preimages) == 4

    def test_bpsk(self):
        frac = relay_map_success(Constellation.bpsk())
        assert (frac.numerator, frac.denominator) == (3, 4)

    @pytest.mark.parametrize("scale", [1e-10, 1e10])
    def test_scale_free(self, scale):
        scaled = Constellation(QPSK.points * scale)
        frac = relay_map_success(scaled)
        assert (frac.numerator, frac.denominator) == (9, 16)
        assert np.array_equal(scaled.map_success_table, QPSK.map_success_table)

    def test_zero_mean_check_is_relative(self):
        with pytest.raises(InvalidInput):
            Constellation(np.array([1, -1 + 1e-3]) * 1e-10)

    @pytest.mark.parametrize("points", [[np.inf, -np.inf], [1, np.nan], [1j * np.inf, -1j * np.inf]])
    def test_nonfinite_points_rejected(self, points):
        with pytest.raises(InvalidInput, match="finite"):
            Constellation(np.array(points))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput, match="constellation must be nonempty"):
            Constellation(np.array([]))

    def test_repeated_points_rejected(self):
        # zero-mean and finite, so only the distinctness check refuses it
        with pytest.raises(InvalidInput, match="constellation points must be distinct"):
            Constellation(np.array([1, 1, -1, -1]))

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInput, match="unknown constellation '8psk'"):
            Constellation.from_name("8psk")


class TestTwoUserBaseline:
    """The scalar two-user pipeline, as the K=2, N=1 case of Link."""

    def test_noiseless_perfect(self):
        rng = np.random.default_rng(8)
        link = scalar_link(1 + 1j, 2 - 1j, 0.5j, 1.5)
        idx = rng.integers(0, 4, (2, 500))  # one stream per user
        x = QPSK.points[idx]
        hard = QPSK.nearest_index(x[link.sent])
        ser = tuple(float(np.mean(hard[k] != idx[1 - k])) for k in (0, 1))
        assert ser == (0.0, 0.0)

    def test_premultipliers_align(self):
        h1, h2 = 1 + 1j, 3 - 2j
        u = [m[0, 0] for m in scalar_link(h1, h2, 1, 1).encoders]
        assert abs(h1 * u[0] - h2 * u[1]) < 1e-12

    def test_relay_map_rate_near_nine_sixteenths(self):
        _, hits = seeded_sweep(StrategySpec(2, 1, (1, 1)), QPSK, [0.0], 10_000, seed=10)
        assert abs(hits / 10_000 - 9 / 16) < 0.02  # N = 1 pair sum a trial

    def test_zero_channel_rejected(self):
        with pytest.raises(SingularChannel):
            scalar_link(0, 1, 1, 1)


class TestRunMonteCarlo:
    def test_zero_noise_limit(self):
        errors, _ = seeded_sweep(StrategySpec(3, 3, (2, 2, 2)), QPSK, [0.0], 1000, seed=1)
        assert errors.shape == (1, 6) and errors.dtype == np.intp and not errors.any()

    def test_reproducible(self):
        a = seeded_sweep(StrategySpec(3, 3, (2, 2, 2)), QPSK, [0.1, 0.01], 500, seed=7)
        b = seeded_sweep(StrategySpec(3, 3, (2, 2, 2)), QPSK, [0.1, 0.01], 500, seed=7)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1] and type(a[1]) is int

    def test_equivocation_near_map_rate(self):
        _, hits = seeded_sweep(StrategySpec(3, 3, (2, 2, 2)), QPSK, [0.0], 10_000, seed=3)
        assert abs(hits / (3 * 10_000) - 9 / 16) < 0.02  # N = 3 pair sums a trial

    def test_signal_interference_split(self):
        # dim(G_k V_k) = d_k and G_k V = G_k V_k + G_k I_k as a direct sum
        rng = np.random.default_rng(11)
        strategy = strategy_from_pairwise(paired_pairwise_table(4, 2), rng)
        ch = draw_channels(4, 2, rng)
        for k in range(4):
            gv = orthonormal_stack((ch.G[k] @ strategy.subspaces[k])[None])[0]
            gi = orthonormal_stack(interference_blocks(strategy, k)[None])[0]
            gi_img = ch.G[k] @ gi
            stacked = np.hstack([gv, gi_img])
            assert gv.shape[1] == strategy.spec.d[k]
            assert np.linalg.matrix_rank(stacked) == gv.shape[1] + gi.shape[1]

    def test_one_system_per_sweep(self, monkeypatch):
        # the sweep builds no system of its own: every level runs over the Link it
        # is given, and it draws only its trials' symbols and noise
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a system")

        link, rng = seeded_link(StrategySpec(3, 3, (2, 2, 2)), 34)
        for module, name in [(feasibility, "construct_strategy"), (relaysim, "draw_channels"),
                             (relaysim, "design_encoders"), (relaysim, "Link")]:
            monkeypatch.setattr(module, name, refuse)
        errors, _ = run_monte_carlo(link, QPSK, [1.0, 0.1, 0.01, 0.001, 1e-4], 20, rng)
        assert errors.shape == (5, 6)

    @staticmethod
    def assert_refused_before_rng_moves(grid, trials, match):
        link, rng = seeded_link(StrategySpec(3, 3, (2, 2, 2)), 0)
        before = rng.bit_generator.state
        with pytest.raises(InvalidInput, match=match):
            run_monte_carlo(link, QPSK, grid, trials, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("grid", [[float("nan")], [float("inf")], [-1.0], [0.1, float("nan")]])
    def test_invalid_noise_grid(self, grid):
        self.assert_refused_before_rng_moves(grid, 20, "finite and >= 0")

    def test_empty_noise_grid_rejected_before_any_draw(self):
        self.assert_refused_before_rng_moves([], 100_000, "nonempty")

    def test_invalid_trials(self):
        self.assert_refused_before_rng_moves([0.1], 0, "trials must be >= 1")

    @pytest.mark.parametrize("size", [2, 3, 4, 8])
    def test_one_symbol_draw_is_the_per_user_stream(self, size):
        # the sweep draws all users' symbols in one call; the reference draws them
        # user by user, with d_i * trials odd in some of these shapes
        for d, trials in [((3, 3, 2, 2), 101), ((4, 2, 1, 1), 1), ((2, 2, 0), 7), ((1, 1), 5)]:
            one, each = np.random.default_rng(6), np.random.default_rng(6)
            got = one.integers(0, size, size=(sum(d), trials))
            want = np.concatenate([each.integers(0, size, size=(d_i, trials)) for d_i in d])
            assert np.array_equal(got, want), (d, trials)
            assert np.array_equal(one.integers(0, 3, 5), each.integers(0, 3, 5))  # the same stream left behind

    def test_trials_past_the_largest_buffer_rejected_before_any_allocation(self):
        # the sweep's symbol indices hold 8 Σd trials bytes, Σd = 6 at K=3 N=3:
        # one trial past the largest count that fits, refused before the symbols are drawn
        trials = np.iinfo(np.intp).max // (8 * 6) + 1
        assert 8 * 6 * (trials - 1) <= np.iinfo(np.intp).max < 8 * 6 * trials
        self.assert_refused_before_rng_moves([0.1], trials, "largest array")


# The sweep and its two kernels as they were before decoding ran in trial blocks,
# kept as the reference for the blocked form: noise as one complex expression,
# nearest point by argmin, every level decoded over all trials at once, each
# receiver's noiseless observation G_k r formed and mapped by F_k, and the
# tallies over every pair and partner.  The noise follows the sweep's law: all
# of it as the decoders see it, Σd entries per trial, trial by trial.  The
# levels share their trials: the symbols of every trial are drawn once, user by
# user, then the unit noise of every trial in one call, and level var's noise
# reaches receiver k as sqrt(var) times its rows of noise_factor_all applied to
# that one draw.


def reference_complex_gaussian(rng, shape, variance):
    scale = np.sqrt(variance / 2)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def reference_decoder_noise(rng, rows, trials):
    """(rows, trials) unit-variance noise: per trial, rows real normals and then rows imaginary ones."""
    a = rng.standard_normal((trials, 2, rows))
    return (np.sqrt(1 / 2) * (a[:, 0] + 1j * a[:, 1])).T


def reference_nearest_index(constellation, values):
    v = np.asarray(values, dtype=np.complex128)
    return np.abs(v[..., None] - constellation.points).argmin(axis=-1)


def reference_monte_carlo(link, constellation, noise_grid, trials, rng):
    wrong, relay_hits = reference_sweep(link, constellation, noise_grid, trials, rng)
    return wrong.sum(axis=2), relay_hits


def reference_sweep(link, constellation, noise_grid, trials, rng):
    """Per level a (Σd, trials) mask of the estimates decided wrong, every level in full; and the relay's MAP hits."""
    strategy, channels, spec = link.strategy, link.channels, link.strategy.spec
    slices = pair_slices(strategy)
    succ_table = constellation.map_success_table
    pts = constellation.points
    idx = [rng.integers(0, pts.size, size=(d_i, trials)) for d_i in spec.d]
    x = [pts[ix] for ix in idx]
    r = link.observe(np.concatenate(x))
    w = reference_decoder_noise(rng, sum(spec.d), trials)
    wrong = np.zeros((len(noise_grid), sum(spec.d), trials), dtype=bool)
    for level, var in enumerate(noise_grid):
        for k, rows in enumerate(link.rows):
            # receiver k's receive map F_k = P[slots_k] G_k^-1, and its own signal from G_k, H_k and U_k
            g = channels.G[k]
            f = link.relay_map[link.strategy.slots[k]] @ np.linalg.inv(g)
            own = f @ (g @ (channels.H[k] @ link.encoders[k]))
            est = f @ (g @ r) + math.sqrt(var) * (link.noise_factor_all[rows] @ w) - own @ x[k]
            sent_idx = np.vstack([idx[j][slices[j, k]] for j in range(spec.K) if j != k])
            wrong[level, rows] = reference_nearest_index(constellation, est) != sent_idx
    relay_hits = 0
    for (i, j), dij in strategy.pair_dims().items():
        if dij:
            relay_hits += int(succ_table[idx[i][slices[i, j]], idx[j][slices[j, i]]].sum())
    return wrong, relay_hits


def seeded_link(spec, seed):
    """construct_strategy's Link on seed's first channel draw, and the generator, as simulate builds them."""
    rng = np.random.default_rng(seed)
    return link_of(construct_strategy(spec), draw_channels(spec.K, spec.N, rng)), rng


def seeded_sweep(spec, constellation, grid, trials, seed):
    """run_monte_carlo's counts over seeded_link(spec, seed), as simulate sweeps it."""
    link, rng = seeded_link(spec, seed)
    return run_monte_carlo(link, constellation, grid, trials, rng)


def assert_sweep_equals_reference(link, rng, constellation, grid, trials):
    """run_monte_carlo and the reference, each from rng's state as it stands, give equal counts and end states."""
    want_rng = copy.deepcopy(rng)
    errors, hits = run_monte_carlo(link, constellation, grid, trials, rng)
    want_errors, want_hits = reference_monte_carlo(link, constellation, grid, trials, want_rng)
    assert np.array_equal(errors, want_errors) and hits == want_hits
    assert rng.bit_generator.state == want_rng.bit_generator.state


def per_user(link, errors):
    """(levels, K) error counts of the sweep's (levels, Σd) ones: user k's rows summed."""
    return np.stack([errors[:, r].sum(axis=1) for r in link.rows], axis=1)


PSK8 = Constellation(np.exp(2j * np.pi * np.arange(8) / 8), name="8psk")
GRID = [1.0, 0.1, 0.01, 0.001, 1e-4]


def bits(a):
    return np.ascontiguousarray(a).view(np.float64).view(np.uint64)


class TestBlockedSweep:
    @pytest.mark.parametrize(
        "spec, constellation, grid, seed",
        [
            (StrategySpec(3, 3, (2, 2, 2)), QPSK, GRID, 3),
            (StrategySpec(3, 3, (2, 2, 2)), Constellation.bpsk(), GRID, 57),
            (StrategySpec(3, 3, (2, 2, 2)), PSK8, GRID, 0),
            (StrategySpec(16, 32, (4,) * 16), QPSK, GRID, 1),
            (StrategySpec(3, 3, (2, 2, 2)), QPSK, [1.0, 0.0, 0.1, 0.0], 2**31 - 1),
            (StrategySpec(4, 4, (2, 2, 2, 2)), QPSK, [0.5, 0.0, 1e-3], 1234567),
        ],
    )
    def test_ragged_blocks_equal_whole_array_reference(self, spec, constellation, grid, seed):
        # a block holds BLOCK_ENTRIES // Σd trials: two full blocks and a last one of 7
        trials = 2 * (BLOCK_ENTRIES // sum(spec.d)) + 7
        assert_sweep_equals_reference(*seeded_link(spec, seed), constellation, grid, trials)

    def test_default_blocks_equal_whole_array_reference(self):
        trials = 2 * BLOCK_ENTRIES + 101
        assert_sweep_equals_reference(*seeded_link(StrategySpec(3, 3, (2, 2, 2)), 5), QPSK, [0.1, 0.01], trials)

    # unequal d_k, and a user with no streams: the stacked rows of one receiver
    # differ in number from the next one's
    @pytest.mark.parametrize(
        "spec, seed",
        [
            (StrategySpec(4, 5, (3, 3, 2, 2)), 7),
            (StrategySpec(3, 2, (2, 2, 0)), 11),
            (StrategySpec(4, 4, (4, 2, 1, 1)), 12),
        ],
        ids=["3-3-2-2", "2-2-0", "4-2-1-1"],
    )
    @pytest.mark.parametrize("trials", [1, 101, "2 blocks + 1"])
    def test_unequal_streams_equal_whole_array_reference(self, spec, seed, trials):
        if trials == "2 blocks + 1":
            trials = 2 * BLOCK_ENTRIES + 1
        assert_sweep_equals_reference(*seeded_link(spec, seed), QPSK, GRID, trials)

    def test_a_pairwise_strategy_equals_whole_array_reference(self):
        # a relay map that is no coordinate selection: a strategy_from_pairwise
        # frame with cond(S) about 22, its channels and trials from the same generator
        pairwise = {(0, 1): 2, (0, 2): 1, (1, 3): 1, (2, 3): 1}
        rng = np.random.default_rng(5)
        strategy = strategy_from_pairwise(StrategySpec(4, 5, (3, 3, 2, 2), pairwise=pairwise), rng)
        assert 20 < np.linalg.cond(strategy.relay_map()) < 25
        link = link_of(strategy, draw_channels(4, 5, rng))
        trials = 2 * (BLOCK_ENTRIES // 10) + 7
        assert_sweep_equals_reference(link, rng, QPSK, [1.0, 0.0, 0.1, 0.01], trials)


# every shape TestBlockedSweep checks against the reference, ragged d and K=16 included
SWEEP_SHAPES = [
    (StrategySpec(3, 3, (2, 2, 2)), QPSK, 3),
    (StrategySpec(3, 3, (2, 2, 2)), Constellation.bpsk(), 57),
    (StrategySpec(3, 3, (2, 2, 2)), PSK8, 0),
    (StrategySpec(16, 32, (4,) * 16), QPSK, 1),
    (StrategySpec(3, 3, (2, 2, 2)), QPSK, 2**31 - 1),
    (StrategySpec(4, 4, (2, 2, 2, 2)), QPSK, 1234567),
    (StrategySpec(4, 5, (3, 3, 2, 2)), QPSK, 7),
    (StrategySpec(3, 2, (2, 2, 0)), QPSK, 11),
    (StrategySpec(4, 4, (4, 2, 1, 1)), QPSK, 12),
]
SWEEP_IDS = ["qpsk-3", "bpsk-57", "8psk-0", "k16-1", "qpsk-2^31-1", "k4-1234567", "3-3-2-2", "2-2-0", "4-2-1-1"]


@pytest.mark.parametrize("spec, constellation, seed", SWEEP_SHAPES, ids=SWEEP_IDS)
class TestSharedTrials:
    """The levels of a sweep share their trials: level var's noise is sqrt(var) times one unit draw."""

    DENSE = [*np.geomspace(4.0, 1e-4, 40).tolist(), 0.0]

    def trials(self, spec):
        return 2 * (BLOCK_ENTRIES // sum(spec.d)) + 7

    def sweep(self, spec, constellation, grid, seed):
        return seeded_sweep(spec, constellation, grid, self.trials(spec), seed)

    def test_ser_does_not_rise_as_the_noise_falls(self, spec, constellation, seed):
        # p + a n, once out of p's convex Voronoi cell, stays out as a grows; levels
        # this close would often rise in SER if each drew trials of its own
        link, rng = seeded_link(spec, seed)
        errors = per_user(link, run_monte_carlo(link, constellation, self.DENSE, self.trials(spec), rng)[0])
        assert (np.diff(errors, axis=0) <= 0).all()
        assert (errors[0] > 0).tolist() == [d_k > 0 for d_k in spec.d] and not errors[-1].any()

    def test_skipped_decisions_equal_deciding_every_level_in_full(self, spec, constellation, seed):
        # the sweep reads every level off one margin per estimate, which the test
        # above then meets by construction; the reference decides every level in
        # full. Shuffled, with a level repeated, so no count may follow grid order
        grid = np.random.default_rng(seed).permutation([*self.DENSE, self.DENSE[9]]).tolist()
        assert_sweep_equals_reference(*seeded_link(spec, seed), constellation, grid, self.trials(spec))

    def test_a_200_level_grid_equals_the_reference(self, spec, constellation, seed):
        # 200 levels read off one margin per estimate, the last at var = 0, and
        # every one of them decided in full by the reference; a full block and a ragged one
        grid = [*np.geomspace(100.0, 1e-6, 199).tolist(), 0.0]
        assert_sweep_equals_reference(*seeded_link(spec, seed), constellation, grid, BLOCK_ENTRIES // sum(spec.d) + 7)

    def test_a_level_does_not_depend_on_the_rest_of_the_grid(self, spec, constellation, seed):
        alone, alone_hits = self.sweep(spec, constellation, [0.1], seed)
        within, hits = self.sweep(spec, constellation, GRID, seed)
        assert np.array_equal(alone[0], within[1]) and alone_hits == hits

    def test_relay_figure_is_equal_at_every_level(self, spec, constellation, seed):
        # one count per sweep, read off the noiseless sums: no grid changes it
        hits = {self.sweep(spec, constellation, grid, seed)[1] for grid in ([*GRID, 0.0], [0.1], [0.0])}
        assert len(hits) == 1


def q_function(x):
    return math.erfc(x / math.sqrt(2)) / 2


def exact_stream_ser(constellation, v):
    """SER of one stream whose post-decoder noise is circular Gaussian of variance v."""
    if constellation.name == "qpsk":  # points 1, -1, j, -j: two quadrature decisions at distance 1/sqrt(2)
        return 1 - (1 - q_function(1 / math.sqrt(v))) ** 2
    return q_function(math.sqrt(2 / v))  # bpsk


class TestSnrExplainsSer:
    # Each cell's bound was fixed before looking at the results: 5 binomial
    # standard deviations of the exact SER over the trials, plus one trial.
    @pytest.mark.parametrize(
        "spec, constellation, seed, trials",
        [
            *[(StrategySpec(3, 3, (2, 2, 2)), QPSK, seed, 20_000) for seed in (0, 1, 2, 57)],
            (StrategySpec(3, 3, (2, 2, 2)), Constellation.bpsk(), 2, 20_000),
            (StrategySpec(4, 4, (2, 2, 2, 2)), QPSK, 5, 10_000),
            (StrategySpec(16, 32, (4,) * 16), QPSK, 5, 2000),
        ],
    )
    def test_monte_carlo_ser_matches_exact_from_noise_gain(self, spec, constellation, seed, trials):
        # seed 57's user 3 decodes through a badly conditioned frame: SER about
        # 0.60 at noise 0.01, which its worst stream's SNR (-12.2 dB) explains
        link, rng = seeded_link(spec, seed)
        errors, _ = run_monte_carlo(link, constellation, GRID, trials, rng)
        for var, user_errors in zip(GRID, per_user(link, errors)):
            for k, (r, d_k) in enumerate(zip(link.rows, spec.d)):
                gains = link.noise_gain_all[r]
                p = float(np.mean([exact_stream_ser(constellation, var * g) for g in gains]))
                bound = 5 * math.sqrt(p * (1 - p) / trials) + 1 / trials
                assert abs(user_errors[k] / (d_k * trials) - p) <= bound, (seed, var, k, p)


class TestNearestIndex:
    @pytest.mark.parametrize("constellation", [QPSK, Constellation.bpsk(), PSK8])
    def test_random_values_match_argmin(self, constellation):
        rng = np.random.default_rng(8)
        values = 1.5 * (rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500)))
        assert np.array_equal(constellation.nearest_index(values), reference_nearest_index(constellation, values))

    @pytest.mark.parametrize("constellation", [QPSK, Constellation.bpsk(), PSK8])
    def test_lattice_ties_match_argmin(self, constellation):
        # a half-integer lattice holds many points equidistant from two or more
        # constellation points
        grid = np.arange(-4, 5) / 2
        values = (grid[:, None] + 1j * grid[None, :]).ravel()
        assert np.array_equal(constellation.nearest_index(values), reference_nearest_index(constellation, values))

    def test_ties_go_to_the_lower_index(self):
        # QPSK points are 1, -1, 1j, -1j: (1 + 1j)/2 is as close to 1 as to 1j,
        # and 0 is as close to all four
        assert QPSK.nearest_index(np.array([(1 + 1j) / 2, 0, (-1 - 1j) / 2])).tolist() == [0, 0, 1]

    def test_nonfinite_values_get_index_zero(self):
        nan, inf = float("nan"), float("inf")
        values = np.array([complex(nan, 0), complex(0, nan), complex(inf, 0), complex(-inf, 0), complex(0, -inf),
                           complex(inf, nan), complex(nan, -inf), -1j])
        got = QPSK.nearest_index(values)
        assert got.tolist() == [0, 0, 0, 0, 0, 0, 0, 3]
        assert np.array_equal(got, reference_nearest_index(QPSK, values))

    def test_shape_and_dtype(self):
        got = QPSK.nearest_index(np.zeros((2, 3, 4)))
        assert got.shape == (2, 3, 4) and got.dtype == np.intp

    def test_no_values_give_no_indices(self):
        # an empty array of values gives an empty array of indices
        got = QPSK.nearest_index(np.empty(0, complex))
        assert got.shape == (0,) and got.dtype == np.intp


GRID64 = Constellation(((np.arange(8) - 3.5)[:, None] + 1j * (np.arange(8) - 3.5)).ravel(), name="grid64")
# zero-mean with no symmetry: its points and their gaps all differ
SKEWED = Constellation(np.array([3, -1 + 2j, -1.5 - 1j, 0.25 - 0.5j, -0.75 - 0.5j]), name="skewed")
MARGIN_SETS = [QPSK, Constellation.bpsk(), PSK8, GRID64, SKEWED]
MARGIN_IDS = ["qpsk", "bpsk", "8psk", "grid64", "skewed"]


class TestMarginTable:
    """p_s + a n is decided wrong iff a m > u: m = max_j Re(n c[s, j]), c = margin_table, u = margin_unit."""

    @pytest.mark.parametrize("constellation", MARGIN_SETS, ids=MARGIN_IDS)
    def test_margin_rule_matches_nearest_point(self, constellation):
        rng = np.random.default_rng(8)
        s = rng.integers(0, constellation.size, 2000)
        n = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
        m = (n[:, None] * constellation.margin_table[s]).real.max(axis=1)
        u = constellation.margin_unit
        # scales from far inside to far outside s's Voronoi cell along n, a m = t u; those of 0.999
        # and 1.001 straddle the boundary a = u / m and keep a relative 1e-3 clear of a tie.
        # An m of 0 has no boundary along n (s's cell is unbounded there): a = 1e6 stays inside
        for t in [1e-2, 0.5, 0.999, 1.001, 2.0, 100.0]:
            a = np.divide(t * u, m, out=np.full(m.shape, 1e6), where=m > 0)
            wrong = reference_nearest_index(constellation, constellation.points[s] + a * n) != s
            assert np.array_equal(a * m > u, wrong)
            assert wrong.any() == (t > 1) and not wrong.all()

    @pytest.mark.parametrize(
        "constellation, s, n",
        [(QPSK, 0, (-1 + 1j) / 2), (QPSK, 2, (1 - 1j) / 2), (Constellation.bpsk(), 0, -1), (Constellation.bpsk(), 1, 1)],
    )
    def test_a_tie_counts_as_right_whatever_the_order(self, constellation, s, n):
        # QPSK's (1 + 1j) / 2 is as near point 0 (1) as point 2 (1j), BPSK's 0 as near 1 as -1; these
        # margins are exact in floats. The nearest-point search gives a tie to the lower index instead
        m = (n * constellation.margin_table[s]).real.max()
        assert constellation.margin_unit == 1 and m == 1
        assert reference_nearest_index(constellation, constellation.points[s] + n) == 0

    @pytest.mark.parametrize("constellation", MARGIN_SETS, ids=MARGIN_IDS)
    def test_table_is_built_once_read_only(self, constellation):
        table = constellation.margin_table
        assert table is constellation.margin_table and not table.flags.writeable
        assert table.shape == (constellation.size,) * 2 and table.dtype == np.complex128
        assert not np.diag(table).any()  # the zero diagonal: p_s is no rival of its own

    @pytest.mark.parametrize("exponent", [-900, 0, 600])
    def test_a_set_scaled_by_a_power_of_two_keeps_its_table(self, exponent):
        # u scales with the points, and the gaps are divided by it exactly
        scaled = Constellation(np.ldexp(PSK8.points.view(float), exponent).view(complex))
        assert scaled.margin_unit == math.ldexp(PSK8.margin_unit, exponent)
        assert np.array_equal(scaled.margin_table, PSK8.margin_table)

    @pytest.mark.parametrize("exponent", [-500, 500])
    def test_a_sweep_scaled_by_a_power_of_two_counts_the_same(self, exponent):
        # points times 2^k and variances times 4^k: the same margins, thresholds and counts
        scaled = Constellation(np.ldexp(QPSK.points.view(float), exponent).view(complex))
        grid = [*GRID, 0.0]
        want = seeded_sweep(StrategySpec(3, 3, (2, 2, 2)), QPSK, grid, 3000, seed=4)
        got = seeded_sweep(StrategySpec(3, 3, (2, 2, 2)), scaled, [math.ldexp(v, 2 * exponent) for v in grid], 3000, seed=4)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_a_threshold_that_underflows_counts_only_positive_margins(self):
        # BPSK at 2^-1074, the smallest subnormal, has BPSK's table; at var 1e300 its threshold
        # u / sqrt(var) underflows to 0, where BPSK's is 1e-150: both count the margins above 0
        tiny = Constellation(np.array([5e-324, -5e-324]))
        assert np.array_equal(tiny.margin_table, Constellation.bpsk().margin_table)
        want = seeded_sweep(StrategySpec(3, 3, (2, 2, 2)), Constellation.bpsk(), [1e300], 3000, seed=4)
        got = seeded_sweep(StrategySpec(3, 3, (2, 2, 2)), tiny, [1e300], 3000, seed=4)
        assert np.array_equal(got[0], want[0]) and 0 < want[0].sum() < 6 * 3000

    @pytest.mark.parametrize("points", [[1e-320, -1e-320], [5e-324, -5e-324], [1e-320, 1e-320j, -1e-320, -1e-320j]])
    def test_subnormal_points_give_a_finite_table(self, points):
        # 2 / (p_j - p_s) would overflow; measured in u, no entry does
        constellation = Constellation(np.array(points))
        assert np.isfinite(constellation.margin_table.view(float)).all()
        assert constellation.margin_unit <= np.abs(constellation.points).max() < 2 * constellation.margin_unit


def reference_draw(rng, rows, size, variance):
    """One standard_normal((rows, 2, size)) draw scaled by sqrt(variance / 2): each row's real, then imaginary parts."""
    raw = np.sqrt(variance / 2) * rng.standard_normal((rows, 2, size))
    want = np.empty((rows, size), dtype=np.complex128)
    want.real, want.imag = raw[:, 0], raw[:, 1]  # part by part, so even a zero keeps the sign of its product
    return want


def recorded_draws(monkeypatch, module, run):
    """run() with module's drawer recorded: per call its rows, size, variance, generator states and output."""
    calls = []

    def spy(rng, rows, size, variance):
        before = rng.bit_generator.state
        got = _complex_gaussian(rng, rows, size, variance)
        calls.append((rows, size, variance, before, rng.bit_generator.state, got.copy()))
        return got

    with monkeypatch.context() as m:
        m.setattr(module, "_complex_gaussian", spy)
        run()
    return calls


class TestComplexGaussian:
    """subspace._complex_gaussian: (rows, size) values from one standard_normal((rows, 2, size)) draw, scaled.

    Every caller's call is that draw scaled by sqrt(variance / 2), bit for bit,
    and leaves the generator where the draw does: the channel draw's 2K rows of
    N^2, the line probe's two rows of 9 a line, haar_stack's row of n d a
    subspace, the genericity draw's row of N sum(d_i) a trial, and the sweep's
    t rows of Σd a block.  Rows drawn in turn are the rows of one draw of
    their sum, so no caller's numbers depend on its block size.
    """

    CALLERS = {  # the module whose drawer the caller binds, the call, and its (rows, size, variance)
        "draw_channels": (relaysim, lambda rng: draw_channels(3, 2, rng), [(6, 4, 1.0)]),
        "codim_line_probe": (variety, lambda rng: codim_line_probe(rng, 5), [(10, 9, 2.0)]),
        "haar_stack": (feasibility, lambda rng: haar_stack(4, 2, 3, rng), [(3, 8, 2.0)]),
        "generic_feasibility_rate": (
            feasibility,
            lambda rng: generic_feasibility_rate(StrategySpec(4, 3, (2, 0, 3, 1)), 5, rng),
            [(5, 18, 2.0)],
        ),
        "sample_generic_strategy": (
            feasibility,
            lambda rng: sample_generic_strategy(StrategySpec(4, 3, (2, 0, 3, 1)), rng),
            [(1, 18, 2.0)],
        ),
    }

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_each_caller_draws_one_scaled_block(self, monkeypatch, caller):
        module, run, want_calls = self.CALLERS[caller]
        calls = recorded_draws(monkeypatch, module, lambda: run(np.random.default_rng(25)))
        assert [c[:3] for c in calls] == want_calls
        self.assert_scaled_draws(calls)

    def test_the_sweep_draws_trial_rows(self, monkeypatch):
        # the channels, then a block of BLOCK_ENTRIES // 6 trials and one of 7, all from simulate's one generator
        trials = BLOCK_ENTRIES // 6 + 7
        spec = StrategySpec(3, 3, (2, 2, 2))
        calls = recorded_draws(monkeypatch, relaysim, lambda: seeded_sweep(spec, QPSK, [0.1], trials, seed=26))
        assert [c[:3] for c in calls] == [(6, 9, 1.0), (BLOCK_ENTRIES // 6, 6, 1.0), (7, 6, 1.0)]
        self.assert_scaled_draws(calls)

    @staticmethod
    def assert_scaled_draws(calls):
        for rows, size, variance, before, after, got in calls:
            want_rng = np.random.default_rng()
            want_rng.bit_generator.state = before
            assert np.array_equal(bits(got), bits(reference_draw(want_rng, rows, size, variance)))
            assert want_rng.bit_generator.state == after

    @pytest.mark.parametrize("variance", [1.0, 0.1, 3.7, 1e-4, 1e-300])
    @pytest.mark.parametrize("shape", [(3, 1000), (32, 200), (2, 2), (1, 7)])
    def test_buffered_draw_equals_complex_expression(self, variance, shape):
        # one row of N trials entries: away from a zero scale or a zero normal, the drawer's
        # scaled write into the buffer it returns gives the bits of the complex expression
        n, trials = shape
        expected = reference_complex_gaussian(np.random.default_rng(21), shape, variance)
        got = _complex_gaussian(np.random.default_rng(21), 1, n * trials, variance)
        assert got.shape == (1, n * trials) and got.dtype == np.complex128 and got.flags.c_contiguous
        assert np.array_equal(bits(got.reshape(shape)), bits(expected))

    @pytest.mark.parametrize("variance", [1.0, 0.1, 1e-300, 5e-324, 0.0])
    @pytest.mark.parametrize("d", [(2, 2, 2), (3, 3, 2, 2), (2, 2, 0), (4, 2, 1, 1), (0, 1), (3,)])
    def test_receiver_noise_equals_successive_draws(self, variance, d):
        # calls of rows of several sizes in turn, one per user, continue one stream;
        # 5e-324 / 2 rounds to 0, so 5e-324 and 0.0 scale by 0 and keep each normal's sign
        trials = 7
        rng, want_rng = np.random.default_rng(22), np.random.default_rng(22)
        got = np.concatenate([_complex_gaussian(rng, 1, d_k * trials, variance) for d_k in d], axis=1)
        want = np.concatenate([reference_draw(want_rng, 1, d_k * trials, variance) for d_k in d], axis=1)
        assert np.array_equal(bits(got), bits(want))
        assert rng.standard_normal() == want_rng.standard_normal()  # the same stream left behind

    def test_one_filled_buffer_equals_two_draws(self):
        # the drawer's one flat standard_normal call, as its rows split it
        a_rng, b_rng = np.random.default_rng(9), np.random.default_rng(9)
        filled = a_rng.standard_normal(2 * 3 * 11).reshape(2, 3, 11)
        assert np.array_equal(filled[0], b_rng.standard_normal((3, 11)))
        assert np.array_equal(filled[1], b_rng.standard_normal((3, 11)))
        assert a_rng.standard_normal() == b_rng.standard_normal()

    @pytest.mark.parametrize("variance", [1.0, 0.1, 1e-300, 5e-324, 0.0])
    @pytest.mark.parametrize("rows, t", [(6, BLOCK_ENTRIES // 6), (6, 7), (64, BLOCK_ENTRIES // 64), (10, 1)])
    def test_trial_rows_into_slices_of_larger_buffers(self, variance, rows, t):
        # the sweep's call: t rows of Σd entries, the slice [:t] of a draw of t + 5 rows from
        # the same state; a variance of 5e-324 or 0 scales by 0, and each zero keeps its normal's sign
        rng, want_rng = np.random.default_rng(23), np.random.default_rng(23)
        got = _complex_gaussian(rng, t, rows, variance)
        assert got.shape == (t, rows)
        assert np.array_equal(bits(got), bits(reference_draw(want_rng, t, rows, variance)))
        assert rng.standard_normal() == want_rng.standard_normal()  # the same stream left behind
        larger = _complex_gaussian(np.random.default_rng(23), t + 5, rows, variance)
        assert np.array_equal(bits(got), bits(larger[:t]))

    @pytest.mark.parametrize("variance", [0.3, 2.0])
    @pytest.mark.parametrize("split", [(BLOCK_ENTRIES // 6, 7), (1, 1), (3, 250, 1)])
    def test_row_counts_in_turn_equal_one_draw_of_their_sum(self, variance, split):
        # successive blocks of the sweep against one whole draw
        rng, whole_rng = np.random.default_rng(24), np.random.default_rng(24)
        parts = [_complex_gaussian(rng, t, 6, variance) for t in split]
        whole = _complex_gaussian(whole_rng, sum(split), 6, variance)
        assert np.array_equal(bits(np.concatenate(parts)), bits(whole))
        assert rng.standard_normal() == whole_rng.standard_normal()
