"""Tests of the benchmark's own checkers and tracer (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_checks.py

Each checker first accepts a real output of the program, then rejects a
doctored copy of it.
"""

from __future__ import annotations

import copy
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from relay_align import cli  # noqa: E402

GRID = (1.0, 0.1, 0.01)


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim") / "sim"
    assert run_cli("simulate", "-K", 3, "-N", 3, "-d", "2,2,2", "--trials", 2000,
                   "--noise-grid", "1,0.1,0.01", "--seed", 5, "-o", base) == 0
    return json.loads(Path(f"{base}.json").read_text()), Path(f"{base}.csv").read_text()


def check_sim(doc, csv_text):
    return checks.check_simulate(doc, csv_text, k=3, n=3, d=(2, 2, 2), trials=2000, seed=5,
                                 grid=GRID, points=checks.QPSK_POINTS)


def test_simulate_accepts_real_output(sim):
    assert check_sim(*sim) == []


@pytest.mark.parametrize("doctor", [
    lambda doc: doc["levels"][1].update(relay_map_success_rate=0.9),
    lambda doc: doc.update(relay_map_success_exact=[1, 16]),
    lambda doc: doc["levels"][0]["per_user_ser"].__setitem__(2, 1.5),
    lambda doc: doc["levels"][2].update(trials=1000),
    lambda doc: doc.update(seed=6),
    lambda doc: doc["levels"].pop(),
])
def test_simulate_rejects_doctored_json(sim, doctor):
    doc = copy.deepcopy(sim[0])
    doctor(doc)
    assert check_sim(doc, sim[1])


def test_simulate_rejects_csv_that_disagrees(sim):
    doc, csv_text = sim
    lines = csv_text.splitlines(keepends=True)
    row = lines[4].split(",")
    row[2] = "0.5"
    assert check_sim(doc, "".join(lines[:4] + [",".join(row)] + lines[5:]))
    assert check_sim(doc, "".join(lines[:-1]))


def test_ser_notes():
    levels = [{"noise_var": 1.0, "per_user_ser": [0.3, 0.3]},
              {"noise_var": 0.1, "per_user_ser": [0.01, 0.2]},
              {"noise_var": 0.01, "per_user_ser": [0.0, 0.002]}]
    assert checks.ser_rises(levels, d=(1, 1), trials=10_000) == []
    assert checks.ser_floor_misses(levels) == [1]
    levels[2]["per_user_ser"][0] = 0.05
    assert checks.ser_rises(levels, d=(1, 1), trials=10_000) == [0]
    assert checks.ser_notes(levels, d=(1, 1), trials=10_000) == {
        "ser_users": 2, "ser_floor_misses": 2, "ser_rises": 1}


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Levels of three `simulate` sweeps on the simulate-long shape and grid, fewer trials."""
    base = tmp_path_factory.mktemp("sweeps") / "sim"
    out = []
    for seed in (1, 2, 3):
        assert run_cli("simulate", "-K", 3, "-N", 3, "-d", "2,2,2", "--trials", 5000, "--noise-grid",
                       ",".join(map(str, workloads.GRID)), "--seed", seed, "-o", base) == 0
        out.append(json.loads(Path(f"{base}.json").read_text())["levels"])
    return out


def run_notes(sweeps) -> Counter:
    notes = Counter()
    for levels in sweeps:
        notes.update(checks.ser_notes(levels, d=(2, 2, 2), trials=5000))
    return notes


def test_ser_shares_accept_real_sweeps(sweeps):
    assert checks.check_ser_shares(run_notes(sweeps)) == []


@pytest.mark.parametrize("doctor", [
    lambda levels: [lv.update(per_user_ser=[0.75] * 3) for lv in levels],  # decisions at chance
    lambda levels: [lv.update(per_user_ser=ser) for lv, ser in  # SER grows as noise falls
                    zip(levels, [lv["per_user_ser"] for lv in reversed(levels)])],
])
def test_ser_shares_reject_doctored_sweeps(sweeps, doctor):
    bad = copy.deepcopy(sweeps)
    for levels in bad:
        doctor(levels)
    assert checks.check_ser_shares(run_notes(bad))


def test_relay_map_success_exact():
    assert checks.relay_map_success_exact(checks.QPSK_POINTS) == checks.Fraction(9, 16)
    assert checks.relay_map_success_exact(((1, 0), (-1, 0))) == checks.Fraction(3, 4)


@pytest.mark.parametrize("n,d,rate", [(3, (2, 2, 2), 1.0), (4, (2, 2, 2, 2), 0.0), (2, (2, 2), 1.0),
                                      (6, (4, 4, 4), 1.0), (3, (1,) * 6, 0.0)])
def test_genericity_rate_and_checker(tmp_path, n, d, rate):
    assert checks.generic_pass_rate(n, d) == rate
    path = tmp_path / "g.csv"
    assert run_cli("genericity", "-K", len(d), "-N", n, "-d", ",".join(map(str, d)),
                   "--trials", 20, "--seed", 3, "-o", path) == 0
    good = path.read_text()
    assert checks.check_genericity(good, k=len(d), n=n, d=d, trials=20, seed=3) == []
    doctored = good.replace(f"{rate:.4f}", "0.5000")
    assert checks.check_genericity(doctored, k=len(d), n=n, d=d, trials=20, seed=3)


@pytest.mark.parametrize("k,n,d", [(3, 3, (2, 2, 2)), (3, 3, (2, 2, 3)), (3, 2, (3, 1, 0))])
def test_feasible_checker(tmp_path, k, n, d):
    path = tmp_path / "f.json"
    run_cli("feasible", "-K", k, "-N", n, "-d", ",".join(map(str, d)), "--seed", 1, "-o", path)
    doc = json.loads(path.read_text())
    assert checks.check_feasible(doc, k=k, n=n, d=d, seed=1) == []
    doc["feasible"] = not doc["feasible"]
    assert checks.check_feasible(doc, k=k, n=n, d=d, seed=1)


def test_construct_and_verify_checkers(tmp_path):
    d = (4,) * 16
    dims = checks.window_pair_dims(32, d)
    assert sum(dims.values()) == 32
    strategy, report = tmp_path / "s.json", tmp_path / "v.json"
    assert run_cli("construct", "-K", 16, "-N", 32, "-d", ",".join(map(str, d)), "-o", strategy) == 0
    assert run_cli("verify", strategy, "-o", report) == 0
    doc, rep = json.loads(strategy.read_text()), json.loads(report.read_text())
    assert checks.check_strategy_file(doc, k=16, n=32, d=d, pair_dims=dims) == []
    assert checks.check_verify_ok(rep, pair_dims=dims, n=32) == []

    wrong = dict(dims, **{"1-9": 3, "1-2": 1})
    assert checks.check_strategy_file(doc, k=16, n=32, d=d, pair_dims=wrong)
    assert checks.check_verify_ok(rep, pair_dims=wrong, n=32)
    bad = copy.deepcopy(rep)
    bad["pair_dims"]["1-9"] = 3
    assert checks.check_verify_ok(bad, pair_dims=dims, n=32)
    bad = dict(rep, ok=False, failed_conditions=["global direct-sum decomposition (iii)"])
    assert checks.check_verify_ok(bad, pair_dims=dims, n=32)
    assert checks.check_verify_rejects(rep)
    assert checks.check_verify_rejects(bad) == []


def test_mismatch_file_is_the_known_fault(tmp_path):
    """`verify` passes a file whose pair bases realise d = 3,2,1 under declared d = 2,2,2."""
    strategy, report = tmp_path / "m.json", tmp_path / "v.json"
    strategy.write_text(json.dumps(workloads.MISMATCH_DOC))
    assert run_cli("verify", strategy, "-o", report) == 0  # the correct exit code is 2
    assert checks.check_verify_rejects(json.loads(report.read_text()))


@pytest.mark.parametrize("n,d,det", [(3, 2, True), (6, 3, False)])
def test_variety_checker(tmp_path, n, d, det):
    path = tmp_path / "v.json"
    assert run_cli("variety", "-N", n, "-d", d, "--samples", 5, "--lines", 4, "--seed", 2, "-o", path) == 0
    doc = json.loads(path.read_text())
    kwargs = dict(n=n, d=d, samples=5, lines=4, det=det, seed=2)
    assert checks.check_variety(doc, **kwargs) == []
    for doctor in (lambda x: x.update(plucker_residual_max=1e-6),
                   lambda x: x["line_probe"]["root_counts"].__setitem__(0, 2),
                   lambda x: x.update(det_triple_agreement=0.98) if det else x.update(N=5)):
        bad = copy.deepcopy(doc)
        doctor(bad)
        assert checks.check_variety(bad, **kwargs)


def test_tracer_sees_bindings_imported_by_name():
    from relay_align import feasibility, relaysim
    from tracer import Tracer

    original = relaysim.verify_strategy
    spec = feasibility.StrategySpec(K=3, N=3, d=(2, 2, 2))
    with Tracer() as tracer:
        assert relaysim.verify_strategy is not original
        relaysim.run_monte_carlo(spec, relaysim.Constellation.qpsk(), [0.1, 0.01], 50, 0)
    assert relaysim.verify_strategy is original and feasibility.verify_strategy is original
    # one verification up front, then one per user's SNR at each of the 2 levels
    assert tracer.metric("feasibility.verify_strategy.calls") == 1 + 2 * 3
    assert tracer.metric("relaysim.Constellation.nearest_index.calls") == 2 * 3
    assert tracer.metric("relaysim.draw_channels.redraws") == 0
    assert 0 < tracer.metric("relaysim.run_monte_carlo.self_s") < tracer.metric("relaysim.run_monte_carlo.s")
    assert tracer.metric("relaysim.self_s") >= tracer.metric("relaysim.run_monte_carlo.self_s")
    with pytest.raises(KeyError):
        tracer.metric("relaysim.nothing.redraws")
