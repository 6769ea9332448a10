import itertools

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
    paired_pairwise_table,
    strategy_from_pairwise,
    symmetric_pairwise_table,
)
from relay_align.relaysim import (
    ChannelSet,
    Constellation,
    Link,
    NoiseModel,
    design_encoders,
    draw_channels,
    receiver_decode,
    relay_map_success,
    run_monte_carlo,
    secrecy_audit,
    snr,
    two_user_baseline,
)
from relay_align.subspace import orthonormal_basis

E3 = np.eye(3, dtype=complex)
QPSK = Constellation.qpsk()


def identity_channels(k, n):
    eye = np.eye(n, dtype=complex)
    return ChannelSet(K=k, N=n, H=[eye.copy() for _ in range(k)], G=[eye.copy() for _ in range(k)])


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
            assert abs(np.linalg.det(m)) > 0
            assert np.linalg.cond(m) <= 1e8

    def test_deterministic_under_seed(self):
        a = draw_channels(4, 2, np.random.default_rng(5))
        b = draw_channels(4, 2, np.random.default_rng(5))
        for x, y in zip([*a.H, *a.G], [*b.H, *b.G]):
            assert np.array_equal(x, y)

    def test_shapes(self):
        ch = draw_channels(3, 3, np.random.default_rng(1))
        assert all(m.shape == (3, 3) for m in [*ch.H, *ch.G])

    def test_cond_limit_below_one_rejected(self):
        with pytest.raises(InvalidInput):
            draw_channels(3, 3, np.random.default_rng(0), cond_limit=0.5)

    def test_unreachable_cond_limit_stops(self):
        # a 2x2 Gaussian matrix has cond > 1 almost surely, so every draw misses
        with pytest.raises(SingularChannel):
            draw_channels(2, 2, np.random.default_rng(0), cond_limit=1.0)


class TestDesignEncoders:
    def test_identity_channels_reproduce_pair_blocks(self):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        enc = design_encoders(strategy, identity_channels(3, 3))
        for i in range(3):
            assert np.allclose(enc[i], strategy.user_basis(i))

    def test_pair_columns_agree_through_random_channels(self):
        rng = np.random.default_rng(2)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 6), rng)
        ch = draw_channels(3, 6, rng)
        enc = design_encoders(strategy, ch)
        eff = [ch.H[i] @ enc[i] for i in range(3)]
        for (i, j), b in strategy.pair_bases.items():
            ci = eff[i][:, strategy.block_slice(i, j)]
            cj = eff[j][:, strategy.block_slice(j, i)]
            assert np.linalg.norm(ci - b) < 1e-9
            assert np.linalg.norm(cj - b) < 1e-9

    def test_singular_channel_rejected(self):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        ch.H[0][:] = 0
        with pytest.raises(SingularChannel):
            design_encoders(strategy, ch)


class TestRelayObserve:
    def test_zero_symbols_zero_noise(self):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        enc = design_encoders(strategy, ch)
        r = Link(strategy, ch, enc).observe([np.zeros(2)] * 3)
        assert np.allclose(r, 0)

    def test_worked_example_pairwise_sums(self):
        ch = identity_channels(3, 3)
        link = Link(worked_example_strategy(), ch, worked_example_encoders())
        x = [np.array([1 + 0j, 1j]), np.array([-1 + 0j, -1j]), np.array([1j, -1 + 0j])]
        r = link.observe(x)
        expected = np.array([x[0][0] + x[2][1], x[0][1] + x[1][0], x[1][1] + x[2][0]])
        assert np.linalg.norm(r - expected) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = draw_channels(3, 3, rng)
        link = Link(strategy, ch, design_encoders(strategy, ch))
        x = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        y = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        lhs = link.observe([a + b for a, b in zip(x, y)])
        rhs = link.observe(x) + link.observe(y)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_shape_mismatch(self):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        link = Link(strategy, ch, design_encoders(strategy, ch))
        with pytest.raises(DimensionMismatch):
            link.observe([np.zeros(3)] * 3)


class TestSecrecyAudit:
    def test_verified_strategy_passes(self):
        rng = np.random.default_rng(4)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 3), rng)
        ch = draw_channels(3, 3, rng)
        enc = design_encoders(strategy, ch)
        report = secrecy_audit(enc, ch, strategy)
        assert report.ok and report.pair_sum_injective
        assert report.worst_column_mismatch < 1e-9

    def test_perturbed_encoder_fails(self):
        rng = np.random.default_rng(5)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 3), rng)
        ch = draw_channels(3, 3, rng)
        enc = design_encoders(strategy, ch)
        enc[0][:, 0] += 1e-2
        with pytest.raises(SecrecyViolation):
            secrecy_audit(enc, ch, strategy)

    def test_worked_example_passes_with_permuted_columns(self):
        # the cyclic column order differs from the ascending-partner layout; the
        # audit matches columns by value, not position
        report = secrecy_audit(worked_example_encoders(), identity_channels(3, 3), worked_example_strategy())
        assert report.ok


class TestReceiverDecode:
    def test_worked_example_all_users(self):
        strategy = worked_example_strategy()
        ch = identity_channels(3, 3)
        enc = worked_example_encoders()
        x = [np.array([1, 1j]), np.array([-1, -1j]), np.array([1j, -1])]
        r = Link(strategy, ch, enc).observe(x)
        # user 1 recovers x2^1 (on v2) and x3^2 (on v1)
        res0 = receiver_decode(0, ch.G[0] @ r, x[0], enc, ch, strategy, QPSK)
        assert res0.symbols_by_partner[1][0] == x[1][0]
        assert res0.symbols_by_partner[2][0] == x[2][1]
        # user 2 recovers x1^2 (on v2) and x3^1 (on v3)
        res1 = receiver_decode(1, ch.G[1] @ r, x[1], enc, ch, strategy, QPSK)
        assert res1.symbols_by_partner[0][0] == x[0][1]
        assert res1.symbols_by_partner[2][0] == x[2][0]
        # user 3 recovers x1^1 (on v1) and x2^2 (on v3)
        res2 = receiver_decode(2, ch.G[2] @ r, x[2], enc, ch, strategy, QPSK)
        assert res2.symbols_by_partner[0][0] == x[0][0]
        assert res2.symbols_by_partner[1][0] == x[1][1]

    def test_noiseless_random_setup_exact(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 6), rng)
            ch = draw_channels(3, 6, rng)
            enc = design_encoders(strategy, ch)
            x = [QPSK.points[rng.integers(0, 4, 4)] for _ in range(3)]
            r = Link(strategy, ch, enc).observe(x)
            for k in range(3):
                res = receiver_decode(k, ch.G[k] @ r, x[k], enc, ch, strategy, QPSK)
                for j, got in res.symbols_by_partner.items():
                    sent = x[j][strategy.block_slice(j, k)]
                    assert np.allclose(got, sent)

    def test_batched_decode_matches_single_trials(self):
        rng = np.random.default_rng(12)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 6), rng)
        ch = draw_channels(3, 6, rng)
        link = Link(strategy, ch, design_encoders(strategy, ch))
        x = [QPSK.points[rng.integers(0, 4, (4, 5))] for _ in range(3)]
        z = 0.1 * (rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)))
        r = link.observe(x, z)
        for k in range(3):
            y_tilde = ch.G[k] @ r
            block = link.decode(k, y_tilde, x[k])
            assert block.shape == (4, 5)
            for t in range(5):
                single = link.decode(k, y_tilde[:, t], x[k][:, t])
                assert np.linalg.norm(single - block[:, t]) < 1e-12

    def test_unverified_strategy_rejected(self):
        plane = E3[:, [0, 1]]
        bad = Strategy(
            spec=StrategySpec(3, 3, (2, 2, 2)),
            pair_bases={(0, 1): plane[:, [0]], (0, 2): plane[:, [1]], (1, 2): plane[:, [0]]},
        )
        ch = identity_channels(3, 3)
        with pytest.raises(StrategyInvalid):
            receiver_decode(0, np.zeros(3), np.zeros(2), [plane] * 3, ch, bad, QPSK)


class TestSnr:
    def test_noiseless_is_infinite(self):
        strategy = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        ch = identity_channels(3, 3)
        assert snr(0, strategy, ch, NoiseModel(0, 0)) == float("inf")

    def test_worked_example_value(self):
        # identity channels: P_1 projects off span{e3}; numerator 2, denominator 2 + 2
        strategy = worked_example_strategy()
        ch = identity_channels(3, 3)
        val = snr(0, strategy, ch, NoiseModel(1, 1))
        assert abs(val - 0.5) < 1e-12

    def test_noise_scaling_homogeneity(self):
        rng = np.random.default_rng(6)
        strategy = strategy_from_pairwise(symmetric_pairwise_table(3, 3), rng)
        ch = draw_channels(3, 3, rng)
        base = snr(1, strategy, ch, NoiseModel(0.3, 0.7))
        scaled = snr(1, strategy, ch, NoiseModel(3.0, 7.0))
        assert abs(base - 10 * scaled) < 1e-9 * base


class TestRelayMapSuccess:
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
        assert np.array_equal(scaled.map_success_table(), QPSK.map_success_table())

    def test_zero_mean_check_is_relative(self):
        with pytest.raises(InvalidInput):
            Constellation(np.array([1, -1 + 1e-3]) * 1e-10)

    @pytest.mark.parametrize("points", [[np.inf, -np.inf], [1, np.nan], [1j * np.inf, -1j * np.inf]])
    def test_nonfinite_points_rejected(self, points):
        with pytest.raises(InvalidInput, match="finite"):
            Constellation(np.array(points))


class TestTwoUserBaseline:
    def test_noiseless_perfect(self):
        rng = np.random.default_rng(8)
        rep = two_user_baseline(1 + 1j, 2 - 1j, 0.5j, 1.5, QPSK, NoiseModel(0, 0), 500, rng)
        assert rep.ser == (0.0, 0.0)

    def test_premultipliers_align(self):
        rng = np.random.default_rng(9)
        h1, h2 = 1 + 1j, 3 - 2j
        rep = two_user_baseline(h1, h2, 1, 1, QPSK, NoiseModel(0, 0), 10, rng)
        assert abs(h1 * rep.u[0] - h2 * rep.u[1]) < 1e-12

    def test_relay_map_rate_near_nine_sixteenths(self):
        rng = np.random.default_rng(10)
        rep = two_user_baseline(1, 1, 1, 1, QPSK, NoiseModel(0, 0), 10_000, rng)
        assert abs(rep.relay_map_success_rate - 9 / 16) < 0.02

    def test_zero_channel_rejected(self):
        with pytest.raises(SingularChannel):
            two_user_baseline(0, 1, 1, 1, QPSK, NoiseModel(0, 0), 10, np.random.default_rng(0))


class TestRunMonteCarlo:
    def test_zero_noise_limit(self):
        reports = run_monte_carlo(StrategySpec(3, 3, (2, 2, 2)), QPSK, [0.0], 1000, seed=1)
        assert reports[0].per_user_ser == [0.0, 0.0, 0.0]

    def test_reproducible(self):
        a = run_monte_carlo(StrategySpec(3, 3, (2, 2, 2)), QPSK, [0.1, 0.01], 500, seed=7)
        b = run_monte_carlo(StrategySpec(3, 3, (2, 2, 2)), QPSK, [0.1, 0.01], 500, seed=7)
        assert [r.per_user_ser for r in a] == [r.per_user_ser for r in b]
        assert [r.relay_map_success_rate for r in a] == [r.relay_map_success_rate for r in b]

    def test_equivocation_near_map_rate(self):
        reports = run_monte_carlo(StrategySpec(3, 3, (2, 2, 2)), QPSK, [0.0], 10_000, seed=3)
        assert abs(reports[0].relay_map_success_rate - 9 / 16) < 0.02

    def test_signal_interference_split(self):
        # dim(G_k V_k) = d_k and G_k V = G_k V_k + G_k I_k as a direct sum
        rng = np.random.default_rng(11)
        strategy = strategy_from_pairwise(paired_pairwise_table(4, 2), rng)
        ch = draw_channels(4, 2, rng)
        for k in range(4):
            gv = orthonormal_basis(ch.G[k] @ strategy.subspaces[k].basis)
            gi = strategy.interference_space(k)
            gi_img = ch.G[k] @ gi.basis
            stacked = np.hstack([gv.basis, gi_img])
            assert gv.d == strategy.spec.d[k]
            assert np.linalg.matrix_rank(stacked) == gv.d + gi.d

    def test_invalid_trials(self):
        with pytest.raises(InvalidInput):
            run_monte_carlo(StrategySpec(3, 3, (2, 2, 2)), QPSK, [0.1], 0, seed=0)
