"""Output checks for the benchmark, computed apart from relay_align.

Every checker takes what the program wrote plus the inputs the benchmark gave
it, recomputes the expected figures with its own code (exact integer
arithmetic where the paper gives a count, a binomial interval where the
program gives a Monte Carlo estimate), and returns a list of problems. An
empty list means the output is right.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

# QPSK {1, -1, i, -i} as Gaussian integers (re, im).
QPSK_POINTS = ((1, 0), (-1, 0), (0, 1), (0, -1))

SIM_CSV_HEADER = ["noise_var", "user", "ser", "snr_db", "relay_map_success"]
GENERICITY_CSV_HEADER = ["K", "N", "d", "trials", "seed", "pass_rate"]
PLUCKER_RESIDUAL_LIMIT = 1e-9
LOW_NOISE_SER_LIMIT = 1e-3
PROBE_LINE_ROOTS = 3  # det(t) along a generic line is a cubic


def pair_key(i: int, j: int) -> str:
    """1-based "i-j" key, as the strategy and verify files write pairs."""
    return f"{i + 1}-{j + 1}"


def relay_map_success_exact(points) -> Fraction:
    """Distinct pairwise sums over |X|^2, counted on integer points."""
    sums = {(a[0] + b[0], a[1] + b[1]) for a in points for b in points}
    return Fraction(len(sums), len(points) ** 2)


def feasible_reason(n: int, d) -> str:
    """The paper's test: sum(d) = 2N and every d_i <= N."""
    if sum(d) != 2 * n:
        return "sum"
    if max(d) > n:
        return "bound"
    return "ok"


def window_pair_dims(n: int, d) -> dict[str, int]:
    """|W_i & W_j| for the doubled-space windows of the coordinate construction.

    Positions 0..2N-1 are cut into consecutive windows of widths d_1..d_K and
    position m stands for coordinate m mod N.
    """
    offsets = list(itertools.accumulate(d, initial=0))
    windows = [{m % n for m in range(offsets[i], offsets[i + 1])} for i in range(len(d))]
    return {pair_key(i, j): len(windows[i] & windows[j]) for i, j in itertools.combinations(range(len(d)), 2)}


def generic_pass_rate(n: int, d) -> float:
    """Pass rate of Haar-random tuples: 1 when generic dimensions make a strategy, else 0.

    Generic subspaces meet in dimension max(0, d_i + d_j - N) and three of
    them in max(0, d_i + d_j + d_l - 2N). The tuple is generically a strategy
    exactly when those pairwise dimensions fill every d_i and sum to N, with
    no triple overlap.
    """
    k = len(d)
    g = {p: max(0, d[p[0]] + d[p[1]] - n) for p in itertools.combinations(range(k), 2)}
    rows_ok = all(sum(v for p, v in g.items() if i in p) == d[i] for i in range(k))
    triples_ok = all(d[a] + d[b] + d[c] <= 2 * n for a, b, c in itertools.combinations(range(k), 3))
    return 1.0 if rows_ok and sum(g.values()) == n and triples_ok else 0.0


def _binomial_sd(p: float, n: int) -> float:
    return math.sqrt(p * (1 - p) / n)


def check_simulate(doc: dict, csv_text: str, *, k: int, n: int, d, trials: int, seed: int, grid, points) -> list[str]:
    """`simulate` JSON and CSV for a QPSK sweep over `grid`."""
    problems = []
    config = doc.get("config", {})
    if doc.get("seed") != seed:
        problems.append(f"seed {doc.get('seed')!r} != {seed}")
    if (config.get("K"), config.get("N"), config.get("d"), config.get("trials")) != (k, n, list(d), trials):
        problems.append(f"config echoes {config.get('K')}/{config.get('N')}/{config.get('d')}/{config.get('trials')}")
    exact = relay_map_success_exact(points)
    if doc.get("relay_map_success_exact") != [exact.numerator, exact.denominator]:
        problems.append(f"relay_map_success_exact {doc.get('relay_map_success_exact')} != {exact}")
    levels = doc.get("levels", [])
    if [lv.get("noise_var") for lv in levels] != [float(v) for v in grid]:
        problems.append(f"levels {[lv.get('noise_var') for lv in levels]} != grid {list(grid)}")
        return problems
    p = float(exact)
    relay_sd = _binomial_sd(p, trials * n)  # every slot of C^N carries one pair sum
    for lv in levels:
        var, ser = lv["noise_var"], lv["per_user_ser"]
        if lv.get("trials") != trials:
            problems.append(f"level {var}: trials {lv.get('trials')} != {trials}")
        if len(ser) != k:
            problems.append(f"level {var}: {len(ser)} SER values for K={k}")
            return problems
        rate = lv["relay_map_success_rate"]
        if abs(rate - p) > 5 * relay_sd:
            problems.append(f"level {var}: relay rate {rate} outside {p} +- 5 sd ({relay_sd:.2e})")
        if not all(0.0 <= s <= 1.0 for s in ser):
            problems.append(f"level {var}: SER outside [0, 1]: {ser}")
    problems += _check_simulate_csv(levels, csv_text, k)
    return problems


# `simulate` draws one channel set per noise level and accepts channels with
# condition number up to 1e8, so one badly conditioned draw can leave a user's
# SER high at low noise or rising along the grid. Both happen for a few users
# on some seeds only, so a single sweep does not fail on them. Over a run they
# are counted per (sweep, user), and the run fails when half of its users miss
# the floor or rise: a working decoder stays far below that share on every
# seed, a broken one (wrong decisions, noise not reduced) reaches it.
SER_NOTE_SHARE_LIMIT = 0.5


def ser_floor_misses(levels) -> list[int]:
    """Users (0-based) whose SER at the lowest noise level is not below LOW_NOISE_SER_LIMIT."""
    low = min(levels, key=lambda lv: lv["noise_var"])
    return [user for user, ser in enumerate(low["per_user_ser"]) if ser >= LOW_NOISE_SER_LIMIT]


def ser_rises(levels, *, d, trials: int) -> list[int]:
    """Users (0-based) whose SER rises along the grid, towards lower noise, by more than 2 sd.

    The slack is the binomial sd of the difference of two rates over
    d_k x trials symbols.
    """
    by_noise = sorted(levels, key=lambda lv: -lv["noise_var"])
    rises = []
    for user, d_k in enumerate(d):
        slots = d_k * trials
        if not slots:
            continue
        for a, b in zip(by_noise, by_noise[1:]):
            pa, pb = a["per_user_ser"][user], b["per_user_ser"][user]
            if pb - pa > 2 * math.sqrt(_binomial_sd(pa, slots) ** 2 + _binomial_sd(pb, slots) ** 2):
                rises.append(user)
                break
    return rises


def ser_notes(levels, *, d, trials: int) -> dict[str, int]:
    """Per-sweep counts that `check_ser_shares` judges over a run."""
    return {
        "ser_users": len(d),
        "ser_floor_misses": len(ser_floor_misses(levels)),
        "ser_rises": len(ser_rises(levels, d=d, trials=trials)),
    }


def check_ser_shares(notes) -> list[str]:
    """A run's summed `ser_notes`: under half of its (sweep, user) pairs miss the floor or rise."""
    users = notes.get("ser_users", 0)
    problems = []
    for key, what in (("ser_floor_misses", f"SER not below {LOW_NOISE_SER_LIMIT} at the lowest noise"),
                      ("ser_rises", "SER rising along the grid")):
        if users and notes.get(key, 0) >= SER_NOTE_SHARE_LIMIT * users:
            problems.append(f"{notes.get(key, 0)} of {users} (sweep, user) pairs have {what}")
    return problems


def _check_simulate_csv(levels, csv_text: str, k: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SIM_CSV_HEADER:
        return [f"CSV header {rows[:1]} != {SIM_CSV_HEADER}"]
    body = rows[1:]
    if len(body) != len(levels) * k:
        return [f"CSV has {len(body)} rows, JSON gives {len(levels)} levels x {k} users"]
    problems = []
    for row, (lv, user) in zip(body, itertools.product(levels, range(k))):
        want = [lv["noise_var"], user + 1, lv["per_user_ser"][user], lv["per_user_snr_db"][user], lv["relay_map_success_rate"]]
        try:
            got = [float(row[0]), int(row[1]), float(row[2]), row[3], float(row[4])]
        except (ValueError, IndexError):
            got = row
        if got != want:
            problems.append(f"CSV row {row} != JSON {want}")
    return problems


def check_genericity(csv_text: str, *, k: int, n: int, d, trials: int, seed: int) -> list[str]:
    """`genericity` CSV: echoes its inputs and gives the generic pass rate exactly."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    want = [str(k), str(n), "-".join(map(str, d)), str(trials), str(seed)]
    if len(rows) != 2 or rows[0] != GENERICITY_CSV_HEADER or rows[1][:5] != want:
        return [f"genericity CSV {rows} does not echo {want}"]
    rate, expected = float(rows[1][5]), generic_pass_rate(n, d)
    if rate != expected:
        return [f"pass rate {rate} for N={n} d={list(d)}, expected {expected}"]
    return []


def check_feasible(doc: dict, *, k: int, n: int, d, seed: int) -> list[str]:
    """`feasible` verdict against sum(d) = 2N and d_i <= N."""
    reason = feasible_reason(n, d)
    want = {"feasible": reason == "ok", "reason": reason, "K": k, "N": n, "d": list(d), "seed": seed}
    got = {key: doc.get(key) for key in want}
    return [] if got == want else [f"feasible verdict {got} != {want}"]


def check_strategy_file(doc: dict, *, k: int, n: int, d, pair_dims: dict[str, int]) -> list[str]:
    """Strategy file from `construct`: echoes its shape, and pair basis i-j is N x d_ij."""
    problems = []
    if (doc.get("K"), doc.get("N"), doc.get("d")) != (k, n, list(d)):
        problems.append(f"strategy file declares K={doc.get('K')} N={doc.get('N')} d={doc.get('d')}")
    bases = doc.get("pair_bases", {})
    if not set(bases) <= set(pair_dims):
        problems.append(f"unexpected pair keys {sorted(set(bases) - set(pair_dims))[:5]}")
    for key, want in pair_dims.items():
        rows = bases.get(key, [[]] * n)
        if len(rows) != n or any(len(row) != want for row in rows):
            problems.append(f"pair basis {key} is not {n} x {want}")
    return problems


def check_verify_ok(doc: dict, *, pair_dims: dict[str, int], n: int) -> list[str]:
    """`verify` of a valid strategy: passes, with the expected |V_i & V_j|."""
    problems = []
    if doc.get("ok") is not True or doc.get("failed_conditions") != []:
        problems.append(f"verify ok={doc.get('ok')} failed={doc.get('failed_conditions')}")
    got = doc.get("pair_dims", {})
    if got != pair_dims:
        wrong = sorted(key for key in set(got) | set(pair_dims) if got.get(key) != pair_dims.get(key))
        problems.append(f"pair_dims differ at {wrong[:5]}")
    if sum(got.values()) != n:
        problems.append(f"pair_dims sum to {sum(got.values())}, N={n}")
    return problems


def check_verify_rejects(doc: dict) -> list[str]:
    """`verify` of a strategy that breaks its declared shape: must not pass."""
    return [] if doc.get("ok") is False else [f"verify passed a strategy it should reject: ok={doc.get('ok')}"]


def check_variety(doc: dict, *, n: int, d: int, samples: int, lines: int, det: bool, seed: int) -> list[str]:
    """`variety` probes: Plucker relations hold, the determinant agrees, lines meet a cubic."""
    problems = []
    if (doc.get("N"), doc.get("d"), doc.get("samples"), doc.get("seed")) != (n, d, samples, seed):
        problems.append(f"variety echoes N={doc.get('N')} d={doc.get('d')} samples={doc.get('samples')}")
    residual = doc.get("plucker_residual_max")
    if not (isinstance(residual, float) and residual < PLUCKER_RESIDUAL_LIMIT):
        problems.append(f"plucker_residual_max {residual} not below {PLUCKER_RESIDUAL_LIMIT}")
    if det and doc.get("det_triple_agreement") != 1.0:
        problems.append(f"det_triple_agreement {doc.get('det_triple_agreement')} != 1.0")
    probe = doc.get("line_probe", {})
    if probe.get("lines") != lines or probe.get("root_counts") != [PROBE_LINE_ROOTS] * lines:
        problems.append(f"line probe {probe.get('lines')} lines, root counts {probe.get('root_counts')}")
    return problems
