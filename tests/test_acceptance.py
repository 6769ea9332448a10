"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion N: PASS/FAIL" line directly to the terminal.
"""

import itertools
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from relay_align.cli import main as cli_main
from relay_align.errors import InfeasibleTuple, SecrecyViolation
from relay_align.feasibility import (
    Strategy,
    StrategySpec,
    construct_strategy,
    feasible_variety_dim,
    generic_feasibility_rate,
    haar_subspace,
    is_feasible_tuple,
    paired_pairwise_table,
    strategy_from_pairwise,
    symmetric_pairwise_table,
    verify_strategy,
)
from relay_align.relaysim import (
    Constellation,
    Link,
    design_encoders,
    draw_channels,
    relay_map_success,
    run_monte_carlo,
    secrecy_audit,
)
from relay_align.subspace import orthonormal_basis
from relay_align.variety import (
    DET_ZERO_THRESHOLD,
    _determinant_block,
    _relation_table,
    _residuals,
    codim_line_probe,
    plucker_coords,
)

E3 = np.eye(3, dtype=complex)


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _terminal_reporting(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE_MANAGER = None


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} — {detail}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def test_criterion_1_feasibility_equivalence():
    """construct+verify succeeds exactly on tuples with sum 2N and max <= N."""
    cases = [
        (k, n, (d,) * k)
        for k, n in itertools.product(range(2, 7), range(1, 7))
        for d in range(0, n + 1)
    ]
    rng = np.random.default_rng(1001)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 7))
        cases.append((k, n, tuple(int(x) for x in rng.integers(0, n + 1, k))))

    mismatches = []
    for k, n, d in cases:
        spec = StrategySpec(k, n, d)
        expected = sum(d) == 2 * n and max(d) <= n
        try:
            s = construct_strategy(spec)
            got = verify_strategy(s.subspaces, n).ok
        except InfeasibleTuple:
            got = False
        if got != expected or got != is_feasible_tuple(spec):
            mismatches.append((k, n, d))

    ok = not mismatches
    _report(1, ok, f"{len(cases)} tuples swept, {len(mismatches)} mismatches")
    assert ok, mismatches


def test_criterion_2_generic_classification():
    """Haar-random subspaces are feasible iff the tuple is one of the generic shapes."""
    rate_one = [(2, n, (n, n)) for n in range(1, 5)]
    rate_one += [(3, n, (2 * n // 3,) * 3) for n in (3, 6, 9)]
    rate_zero = [
        (4, 2, (1, 1, 1, 1)),
        (4, 4, (2, 2, 2, 2)),
        (5, 5, (2, 2, 2, 2, 2)),
        (6, 3, (1, 1, 1, 1, 1, 1)),
    ]
    bad = []
    for want, tuples in ((1.0, rate_one), (0.0, rate_zero)):
        for k, n, d in tuples:
            rng = np.random.default_rng(2002)
            rate = generic_feasibility_rate(StrategySpec(k, n, d), 100, rng)
            if rate != want:
                bad.append((k, n, d, rate))
    ok = not bad
    _report(2, ok, f"{len(rate_one) + len(rate_zero)} tuples at 100 seeds each, {len(bad)} off-rate")
    assert ok, bad


def test_criterion_3_dimension_formulas():
    """Variety dimension matches the closed forms, exactly in integers."""
    checked = 0
    bad = []

    for n in range(3, 31, 3):
        got = feasible_variety_dim(symmetric_pairwise_table(3, n))
        if got != 2 * n * n // 3:
            bad.append(("three-user", n, got))
        checked += 1

    # symmetric tables: every pair shares d/(K-1); dim = N^2 (1 - 2/(K(K-1)))
    sym_combos = [(k, k * (k - 1) * m) for k in (2, 3, 4, 5) for m in (1, 2, 3)]
    for k, n in sym_combos:
        got = feasible_variety_dim(symmetric_pairwise_table(k, n))
        want = n * n * (k * (k - 1) - 2) // (k * (k - 1))
        if got != want:
            bad.append(("symmetric", k, n, got, want))
        checked += 1

    # paired tables: users share only with one partner; dim = N^2 (1 - 2/K)
    paired_combos = [(2, 2), (2, 5), (4, 2), (4, 4), (4, 6), (6, 3), (6, 6), (6, 9)]
    for k, n in paired_combos:
        got = feasible_variety_dim(paired_pairwise_table(k, n))
        want = n * n * (k - 2) // k
        if got != want:
            bad.append(("paired", k, n, got, want))
        checked += 1

    ok = not bad and len(sym_combos) + len(paired_combos) == 20
    _report(3, ok, f"{checked} exact dimension checks, {len(bad)} wrong")
    assert ok, bad


def test_criterion_4_three_user_golden_example():
    """Identity channels, coordinate planes: relay sees the three pairwise sums."""
    spec = StrategySpec(3, 3, (2, 2, 2))
    strategy = Strategy(
        spec=spec,
        pair_bases={(0, 1): E3[:, [1]], (0, 2): E3[:, [0]], (1, 2): E3[:, [2]]},
    )
    assert verify_strategy(strategy.subspaces, 3).ok
    channels = draw_channels(3, 3, np.random.default_rng(0))
    channels = type(channels)(K=3, N=3, H=[E3.copy() for _ in range(3)], G=[E3.copy() for _ in range(3)])
    # encoders laid out as in the worked example: user i sends on (v_i, v_{i+1})
    encoders = [E3[:, [0, 1]], E3[:, [1, 2]], E3[:, [2, 0]]]

    link = Link(strategy, channels, encoders)

    rng = np.random.default_rng(44)
    x = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    r = link.observe(x)
    expected = np.array(
        [x[0][0] + x[2][1], x[0][1] + x[1][0], x[1][1] + x[2][0]]
    )
    obs_err = float(np.max(np.abs(r - expected)))

    # user 1 recovers partner symbols x_2^1 and x_3^2 (0-based: x[1][0], x[2][1])
    qpsk = Constellation.qpsk()
    xs = [qpsk.points[rng.integers(0, 4, 2)] for _ in range(3)]
    r = link.observe(xs)
    recovered = {}
    for k in range(3):
        hard = qpsk.points[qpsk.nearest_index(link.decode(k, r, xs[k]))]
        recovered[k] = {j: hard[strategy.block_slice(k, j)] for j in strategy.partners(k)}
    rec_ok = (
        np.allclose(recovered[0][1], xs[1][:1])
        and np.allclose(recovered[0][2], xs[2][1:])
        and np.allclose(recovered[1][0], xs[0][1:])
        and np.allclose(recovered[1][2], xs[2][:1])
        and np.allclose(recovered[2][0], xs[0][:1])
        and np.allclose(recovered[2][1], xs[1][1:])
    )

    ok = obs_err < 1e-12 and rec_ok
    _report(4, ok, f"relay observation error {obs_err:.2e}, named recoveries {'ok' if rec_ok else 'wrong'}")
    assert ok


def test_criterion_5_secrecy_audit():
    """Random verified strategies pass the audit; perturbed encoders do not."""
    shapes = [
        symmetric_pairwise_table(3, 3),
        symmetric_pairwise_table(3, 6),
        paired_pairwise_table(4, 2),
        paired_pairwise_table(6, 3),
    ]
    rng = np.random.default_rng(5005)
    passed = 0
    negatives = 0
    total = 0
    for round_idx in range(50):
        spec = shapes[round_idx % len(shapes)]
        total += 1
        strategy = strategy_from_pairwise(spec, rng)
        assert verify_strategy(strategy.subspaces, spec.N).ok
        channels = draw_channels(spec.K, spec.N, rng)
        encoders = design_encoders(strategy, channels)
        report = secrecy_audit(encoders, channels, strategy)
        if report.ok and report.worst_column_mismatch <= 1e-9:
            passed += 1
        bad = [u.copy() for u in encoders]
        bad[0][0, 0] += 1e-3
        try:
            secrecy_audit(bad, channels, strategy)
        except SecrecyViolation:
            negatives += 1
    ok = passed == total == 50 and negatives == 50
    _report(5, ok, f"{passed}/{total} audits clean, {negatives}/{total} perturbations rejected")
    assert ok


def test_criterion_6_relay_equivocation():
    """Exact MAP success 9/16 (QPSK) and 3/4 (BPSK), Monte Carlo agrees."""
    qpsk_exact = relay_map_success(Constellation.qpsk())
    bpsk_exact = relay_map_success(Constellation.bpsk())

    reports = run_monte_carlo(
        StrategySpec(3, 3, (2, 2, 2)), Constellation.qpsk(), [0.0], 10_000, seed=606
    )
    mc = reports[0].relay_map_success_rate

    ok = (
        qpsk_exact == Fraction(9, 16)
        and bpsk_exact == Fraction(3, 4)
        and 0.5425 <= mc <= 0.5825
    )
    _report(6, ok, f"QPSK {qpsk_exact}, BPSK {bpsk_exact}, Monte Carlo {mc:.4f}")
    assert ok, (qpsk_exact, bpsk_exact, mc)


def test_criterion_7_decoding_under_noise():
    """SER vanishes at low noise and is monotone along the grid (2-sigma slack)."""
    grid = [1.0, 1e-1, 1e-2, 1e-3, 1e-4]
    trials = 10_000
    spec = StrategySpec(3, 3, (2, 2, 2))
    reports = run_monte_carlo(spec, Constellation.qpsk(), grid, trials, seed=707)

    final = reports[-1].per_user_ser
    low_noise_ok = all(s < 1e-3 for s in final)

    monotone_ok = True
    for prev, nxt in zip(reports, reports[1:]):
        for k in range(spec.K):
            p = prev.per_user_ser[k]
            n_sym = spec.d[k] * trials
            slack = 2 * np.sqrt(max(p * (1 - p), 1.0 / n_sym) / n_sym)
            if nxt.per_user_ser[k] > p + slack:
                monotone_ok = False

    ok = low_noise_ok and monotone_ok
    sers = ", ".join(f"{s:.1e}" for s in final)
    _report(7, ok, f"SER at 1e-4 noise [{sers}], monotone {'ok' if monotone_ok else 'violated'}")
    assert ok, [r.per_user_ser for r in reports]


def test_criterion_8_variety_probes():
    """Determinant test tracks the triple-intersection rank test; relations hold."""
    rng = np.random.default_rng(8008)

    triples = [[haar_subspace(3, 2, rng) for _ in range(3)] for _ in range(100)]
    shared = haar_subspace(3, 2, rng)
    line = orthonormal_basis(shared.basis[:, :1])

    def plane_through(line_basis):
        extra = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        return orthonormal_basis(np.hstack([line_basis, extra]))

    degenerate = [
        [shared, shared, shared],
        [shared, shared, haar_subspace(3, 2, rng)],
        [plane_through(line.basis), plane_through(line.basis), plane_through(line.basis)],
        [shared, plane_through(shared.basis[:, :1]), plane_through(shared.basis[:, :1])],
        [plane_through(line.basis), plane_through(line.basis), shared],
    ]
    dets, dims = _determinant_block(np.array([[v.basis for v in vs] for vs in triples + degenerate]))
    agree = int(np.count_nonzero((dets < DET_ZERO_THRESHOLD) == (dims > 0)))

    planes = np.array([v.basis for vs in triples[:30] for v in vs])
    residuals = list(_residuals(_relation_table(3, 2), plucker_coords(planes)))
    for _ in range(30):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n + 1))
        residuals.append(_residuals(_relation_table(n, d), plucker_coords(haar_subspace(n, d, rng).basis[None]))[0])
    worst_residual = max(residuals)

    probe = codim_line_probe(rng, 20)
    lines_ok = probe.all_lines_hit and all(c >= 1 for c in probe.root_counts)

    ok = agree == 105 and worst_residual < 1e-9 and lines_ok
    _report(
        8,
        ok,
        f"det/rank agreement {agree}/105, worst relation residual {worst_residual:.1e}, "
        f"20/20 lines hit: {lines_ok}",
    )
    assert ok


def test_criterion_9_reproducibility(tmp_path, capsys):
    """Every CLI command is byte-identical across reruns with the same seed."""

    def stdout_of(argv):
        rc = cli_main(argv)
        return rc, capsys.readouterr().out

    dij = tmp_path / "dij.json"
    dij.write_text(json.dumps({"1-2": 1, "1-3": 1, "2-3": 1}))
    stdout_cmds = [
        ["feasible", "-K", "3", "-N", "3", "-d", "2,2,2", "--seed", "7"],
        ["genericity", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "50", "--seed", "7"],
        ["variety", "--seed", "7", "--samples", "30", "--lines", "10"],
    ]
    identical = True
    for argv in stdout_cmds:
        (rc1, out1), (rc2, out2) = stdout_of(argv), stdout_of(argv)
        identical &= rc1 == rc2 and out1 == out2

    def file_pair(name, argv_for):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(argv_for(a)) == cli_main(argv_for(b))
        return a, b

    a, b = file_pair(
        "construct",
        lambda p: ["construct", "-K", "3", "-N", "3", "-d", "2,2,2", "--dij", str(dij),
                   "--seed", "7", "-o", str(p) + ".json"],
    )
    identical &= (
        (tmp_path / "construct_a.json").read_bytes() == (tmp_path / "construct_b.json").read_bytes()
    )
    capsys.readouterr()

    a, b = file_pair(
        "simulate",
        lambda p: ["simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "500",
                   "--noise-grid", "0.1,0.001", "--seed", "7", "-o", str(p)],
    )
    for ext in (".json", ".csv"):
        identical &= (
            (tmp_path / ("simulate_a" + ext)).read_bytes()
            == (tmp_path / ("simulate_b" + ext)).read_bytes()
        )
    capsys.readouterr()

    verify_out = stdout_of(["verify", str(tmp_path / "construct_a.json")])
    identical &= verify_out == stdout_of(["verify", str(tmp_path / "construct_a.json")])

    _report(9, identical, "feasible/construct/verify/genericity/simulate/variety reruns byte-identical")
    assert identical
