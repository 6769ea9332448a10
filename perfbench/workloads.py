"""The benchmark workloads: inputs made from the seed, rounds of CLI operations, checks.

A workload runs in whole rounds. Every round of a workload issues the same
commands on inputs of the same size; only the random values (CLI seeds,
feasibility tuples, user labels of the pairwise table) change with the
round's slot in a pool drawn from the benchmark seed. So the work per round,
the share of failing operations and the call counts of a traced round do not
depend on the seed or on how long the run is.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

GRID = (1.0, 0.1, 0.01, 0.001, 0.0001)
POOL = 16  # input sets drawn per run; round slots cycle through them


@dataclass
class Op:
    """One `relay_align.cli.main(argv)` call, its correct exit code and its output check."""

    argv: list[str]
    expect_rc: int
    check: Callable[[], list[str]]


def _csv(values) -> str:
    return ",".join(map(str, values))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """Inputs for one benchmark process, drawn from (workload name, seed)."""

    name = ""
    work_unit = ""
    nominal_round_s = 1.0  # rough untraced round time, used to size the traced run
    reference = "scalar"  # reference kernel closest to the workload's work (reference.py)

    def __init__(self, seed: int, out: Path):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.out = out
        self.notes: Counter = Counter()  # counts summed over the run, judged by check_notes

    def cli_seeds(self) -> list[int]:
        return [self.rng.randrange(2**31) for _ in range(POOL)]

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def round(self, slot: int) -> tuple[list[Op], int]:
        """Operations of round `slot` and the work units they complete."""
        raise NotImplementedError

    @staticmethod
    def check_notes(notes) -> list[str]:
        """Problems in the notes summed over a whole run."""
        return []


class Simulate(Workload):
    """`simulate` sweeps of one (K, N, d) over the 5-level QPSK grid."""

    work_unit = "symbol decisions (levels x trials x sum d_k)"

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.seeds = self.cli_seeds()

    def _op(self, trials: int, grid, seed: int) -> Op:
        base = self.out / "sim"
        argv = [
            "simulate", "-K", str(self.K), "-N", str(self.N), "-d", _csv(self.d),
            "--constellation", "qpsk", "--noise-grid", _csv(grid),
            "--trials", str(trials), "--seed", str(seed), "-o", str(base),
        ]

        def check() -> list[str]:
            doc = _read_json(Path(f"{base}.json"))
            csv_text = Path(f"{base}.csv").read_text()
            problems = checks.check_simulate(
                doc, csv_text, k=self.K, n=self.N, d=self.d, trials=trials,
                seed=seed, grid=grid, points=checks.QPSK_POINTS,
            )
            if not problems:
                self.notes.update(checks.ser_notes(doc["levels"], d=self.d, trials=trials))
            return problems

        return Op(argv, 0, check)

    def warmup(self) -> list[Op]:
        return [self._op(self.warmup_trials, self.warmup_grid, 0)]

    @staticmethod
    def check_notes(notes) -> list[str]:
        return checks.check_ser_shares(notes)

    def round(self, slot: int) -> tuple[list[Op], int]:
        op = self._op(self.trials, GRID, self.seeds[slot % POOL])
        return [op], len(GRID) * self.trials * sum(self.d)


class SimulateLong(Simulate):
    name = "simulate-long"
    nominal_round_s = 1.1
    reference = "vector-large"
    K, N, d = 3, 3, (2, 2, 2)
    trials = 100_000
    warmup_trials, warmup_grid = 2_000, GRID


class SimulateWide(Simulate):
    name = "simulate-wide"
    nominal_round_s = 2.2
    reference = "vector"
    K, N, d = 16, 32, (4,) * 16
    trials = 200
    warmup_trials, warmup_grid = 20, GRID[-1:]


class Genericity(Workload):
    """`genericity` on a rate-1 shape and a rate-0 shape."""

    name = "genericity"
    work_unit = "Haar-random tuples sampled and verified"
    nominal_round_s = 0.6
    SHAPES = ((3, 3, (2, 2, 2), 200), (4, 4, (2, 2, 2, 2), 200))  # K, N, d, trials

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.seeds = [self.cli_seeds() for _ in self.SHAPES]

    def _op(self, shape_index: int, trials: int, seed: int) -> Op:
        k, n, d, _ = self.SHAPES[shape_index]
        path = self.out / f"genericity-{k}.csv"
        argv = ["genericity", "-K", str(k), "-N", str(n), "-d", _csv(d),
                "--trials", str(trials), "--seed", str(seed), "-o", str(path)]
        return Op(argv, 0, lambda: checks.check_genericity(path.read_text(), k=k, n=n, d=d, trials=trials, seed=seed))

    def warmup(self) -> list[Op]:
        return [self._op(i, 10, 0) for i in range(len(self.SHAPES))]

    def round(self, slot: int) -> tuple[list[Op], int]:
        ops = [self._op(i, shape[3], self.seeds[i][slot % POOL]) for i, shape in enumerate(self.SHAPES)]
        return ops, sum(shape[3] for shape in self.SHAPES)


# Pairwise table for `construct --dij` (K=6, N=8): a 6-cycle plus two more
# pair dimensions. Each slot relabels the users, so every slot has the same
# shape of work.
DIJ_K, DIJ_N = 6, 8
DIJ_TABLE = {(0, 1): 2, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (0, 5): 1, (2, 5): 1}

# A strategy file that declares d = 2,2,2 while its pair bases realise
# d = 3,2,1 (B_12 = [e1 e2], B_13 = [e3]). `verify` must reject it.
MISMATCH_DOC = {
    "schema_version": 1,
    "K": 3,
    "N": 3,
    "d": [2, 2, 2],
    "pair_bases": {
        "1-2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "1-3": [[[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]],
    },
}


class Certify(Workload):
    """A fixed mix of feasible / construct / verify / variety commands."""

    name = "certify"
    work_unit = "CLI commands completed"
    nominal_round_s = 0.35
    COORD_K, COORD_N, COORD_D = 16, 32, (4,) * 16
    FEASIBLE_KINDS = ("ok", "ok", "sum", "bound")
    VARIETY = ((6, 3, 20, 20, False), (3, 2, 50, 20, True))  # N, d, samples, lines, det probe

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.mismatch = out / "mismatch.json"
        self.mismatch.write_text(json.dumps(MISMATCH_DOC))
        self.coord_dims = checks.window_pair_dims(self.COORD_N, self.COORD_D)
        self.slots = [self._draw_slot(i) for i in range(POOL)]

    def _tuple(self, kind: str) -> tuple[int, int, tuple[int, ...]]:
        """A (K, N, d) that is feasible ("ok"), or breaks the sum or the bound rule."""
        k, n = self.rng.randint(2, 6), self.rng.randint(1, 8)
        if kind == "bound":
            d = [n + 1, n - 1] + [0] * (k - 2)
            self.rng.shuffle(d)
            return k, n, tuple(d)
        d = [0] * k
        for _ in range(2 * n):  # a random composition of 2N into parts <= N
            d[self.rng.choice([i for i in range(k) if d[i] < n])] += 1
        if kind == "sum":
            d[self.rng.randrange(k)] += 1
        return k, n, tuple(d)

    def _draw_slot(self, index: int) -> dict:
        perm = self.rng.sample(range(DIJ_K), DIJ_K)
        table = {tuple(sorted((perm[i], perm[j]))): v for (i, j), v in DIJ_TABLE.items()}
        path = self.out / f"dij-{index}.json"
        path.write_text(json.dumps({checks.pair_key(i, j): v for (i, j), v in sorted(table.items())}))
        return {
            "tuples": [self._tuple(kind) for kind in self.FEASIBLE_KINDS],
            "dij_file": path,
            "dij_d": tuple(sum(v for p, v in table.items() if i in p) for i in range(DIJ_K)),
            "dij_dims": {checks.pair_key(i, j): table.get((i, j), 0) for i in range(DIJ_K) for j in range(i + 1, DIJ_K)},
            "dij_seed": self.rng.randrange(2**31),
            "variety_seeds": [self.rng.randrange(2**31) for _ in self.VARIETY],
        }

    def _feasible(self, j: int, k: int, n: int, d, seed: int) -> Op:
        path = self.out / f"feasible-{j}.json"
        argv = ["feasible", "-K", str(k), "-N", str(n), "-d", _csv(d), "--seed", str(seed), "-o", str(path)]
        rc = 0 if checks.feasible_reason(n, d) == "ok" else 2
        return Op(argv, rc, lambda: checks.check_feasible(_read_json(path), k=k, n=n, d=d, seed=seed))

    def _construct(self, tag: str, k: int, n: int, d, pair_dims: dict, extra: list[str]) -> Op:
        path = self.out / f"{tag}.json"
        argv = ["construct", "-K", str(k), "-N", str(n), "-d", _csv(d), *extra, "-o", str(path)]
        return Op(argv, 0, lambda: checks.check_strategy_file(_read_json(path), k=k, n=n, d=d, pair_dims=pair_dims))

    def _verify(self, strategy: Path, expect_ok: bool, pair_dims: dict | None = None, n: int = 0) -> Op:
        path = self.out / f"verify-{strategy.stem}.json"
        argv = ["verify", str(strategy), "-o", str(path)]
        if expect_ok:
            return Op(argv, 0, lambda: checks.check_verify_ok(_read_json(path), pair_dims=pair_dims, n=n))
        return Op(argv, 2, lambda: checks.check_verify_rejects(_read_json(path)))

    def _variety(self, n: int, d: int, samples: int, lines: int, det: bool, seed: int) -> Op:
        path = self.out / f"variety-{n}.json"
        argv = ["variety", "-N", str(n), "-d", str(d), "--samples", str(samples), "--lines", str(lines),
                "--seed", str(seed), "-o", str(path), *(["--det-probe"] if det else [])]
        return Op(argv, 0, lambda: checks.check_variety(
            _read_json(path), n=n, d=d, samples=samples, lines=lines, det=det, seed=seed))

    def _ops(self, slot: dict, variety) -> list[Op]:
        coord, dij = self.out / "coordinate.json", self.out / "dij.json"
        ops = [self._feasible(j, *t, seed=slot["dij_seed"]) for j, t in enumerate(slot["tuples"])]
        ops += [
            self._construct("coordinate", self.COORD_K, self.COORD_N, self.COORD_D, self.coord_dims, []),
            self._construct("dij", DIJ_K, DIJ_N, slot["dij_d"], slot["dij_dims"],
                            ["--dij", str(slot["dij_file"]), "--seed", str(slot["dij_seed"])]),
            self._verify(coord, True, self.coord_dims, self.COORD_N),
            self._verify(dij, True, slot["dij_dims"], DIJ_N),
            self._verify(self.mismatch, False),
        ]
        ops += [self._variety(*v, seed=s) for v, s in zip(variety, slot["variety_seeds"])]
        return ops

    def warmup(self) -> list[Op]:
        small = [(n, d, 2, 2, det) for n, d, _, _, det in self.VARIETY]
        return self._ops(self.slots[0], small)

    def round(self, slot: int) -> tuple[list[Op], int]:
        ops = self._ops(self.slots[slot % POOL], self.VARIETY)
        return ops, len(ops)


WORKLOADS = {w.name: w for w in (SimulateLong, SimulateWide, Genericity, Certify)}
