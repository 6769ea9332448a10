"""Command-line front end.

Subcommands: feasible, construct, verify, genericity, simulate, variety.
Every command is deterministic given (args, seed); feasible, verify,
genericity, variety and simulate's JSON echo the seed, construct's strategy
file does not.  Exit codes: 0 success/feasible; 2 domain-negative: an
infeasible tuple or pairwise table, a failed verification, an unsupported
probe shape, or a SecrecyViolation, SingularChannel, StrategyInvalid or
DimensionMismatch (a random draw is used once, so a singular channel draw
or a degenerate --dij draw exits 2 here); 1 usage, I/O or memory error,
InvalidInput, or a float overflow or invalid operation.  Outputs and
messages name user i as i + 1 and pair (i, j) by its key "i-j"
(feasibility.pair_key), the spelling of the files the commands read.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import feasibility, relaysim, variety
from .errors import (
    InconsistentPairwise,
    InfeasibleTuple,
    InvalidInput,
    RelayAlignError,
    StrategyInvalid,
)
from .feasibility import StrategySpec, pair_key, parse_pair_key
from .serialization import atomic_write, complex_array, dump_strategy, load_strategy, read_json_object

SEED_ENV_VAR = "RELAY_ALIGN_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's default 2
        raise UsageError(message)


def _resolve_seed(args) -> int:
    seed = args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if seed is not None and seed < 0:  # numpy's generators take no negative seed
        raise UsageError(f"the seed must be >= 0, got {seed}")
    return 0 if seed is None else seed


def _parse_d(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"-d expects a comma-separated integer list, got {text!r}")


def _spec_from_args(args) -> StrategySpec:
    d = _parse_d(args.d)
    if len(d) != args.K:
        raise UsageError(f"-d lists {len(d)} values but -K is {args.K}")
    try:
        return StrategySpec(K=args.K, N=args.N, d=d)
    except InvalidInput as exc:
        raise UsageError(str(exc))


def _load_pairwise(spec: StrategySpec, path: str) -> StrategySpec:
    try:
        pw = {parse_pair_key(key, spec.K): val for key, val in read_json_object(path).items()}
        return StrategySpec(K=spec.K, N=spec.N, d=spec.d, pairwise=pw)
    except InvalidInput as exc:
        raise UsageError(f"--dij: {exc}")


def _check_count(flag: str, value: int) -> None:
    """A count flag must be >= 1, and no larger than numpy's largest array size, which would never finish."""
    if value < 1:
        raise UsageError(f"{flag} must be >= 1")
    if value > np.iinfo(np.intp).max:
        raise InvalidInput(f"{flag}={value} is past numpy's largest array size")


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_feasible(args) -> int:
    spec = _spec_from_args(args)
    reason = feasibility.feasibility_reason(spec)
    pair_dims, generic = feasibility.generic_verdict(spec)
    verdict = {
        "feasible": reason == "ok",
        "reason": reason,
        "generic": generic,
        "generic_pair_dims": {pair_key(p): e for p, e in pair_dims.items()},
        "K": spec.K,
        "N": spec.N,
        "d": list(spec.d),
        "seed": _resolve_seed(args),
    }
    _emit(_json_text(verdict), args.output)
    return 0 if reason == "ok" else 2


def cmd_construct(args) -> int:
    spec = _spec_from_args(args)
    seed = _resolve_seed(args)
    if args.dij:
        spec = _load_pairwise(spec, args.dij)
        rng = np.random.default_rng(seed)
        strategy = feasibility.strategy_from_pairwise(spec, rng)
    else:
        strategy = feasibility.construct_strategy(spec)
    _emit(dump_strategy(strategy), args.output)
    return 0


def cmd_verify(args) -> int:
    strategy = load_strategy(args.strategy_file)
    spec = strategy.spec
    try:
        strategy.relay_map()
    except StrategyInvalid:
        ok, report = False, feasibility.verify_strategy(strategy.subspaces, spec.N)
    else:  # a basis pair frame fixes the report: V_i & V_j = span B_ij, both decompositions hold, no triple meets
        ok, report = True, feasibility.VerificationReport(True, spec.d, strategy.pair_dims(), (True,) * spec.K, True, 0)
    failed = report.failed_conditions() + ([] if report.dims == spec.d else ["declared dimensions d"])
    doc = {
        "ok": ok,
        "dims": list(report.dims),
        "pair_dims": {pair_key(p): v for p, v in sorted(report.pair_dims.items())},
        "per_user_decomposition_ok": list(report.per_user_ok),
        "global_decomposition_ok": report.global_ok,
        "worst_triple_intersection_dim": report.worst_triple_dim,
        "failed_conditions": failed,
        "seed": _resolve_seed(args),
    }
    _emit(_json_text(doc), args.output)
    return 0 if ok else 2


def cmd_genericity(args) -> int:
    spec = _spec_from_args(args)
    seed = _resolve_seed(args)
    _check_count("--trials", args.trials)
    rng = np.random.default_rng(seed)
    rate = feasibility.generic_feasibility_rate(spec, args.trials, rng)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["K", "N", "d", "trials", "seed", "pass_rate"])
    writer.writerow([spec.K, spec.N, "-".join(map(str, spec.d)), args.trials, seed, f"{rate:.4f}"])
    _emit(buf.getvalue(), args.output)
    return 0


def _snr_db(value: float) -> str:
    return f"{value:.4f}"  # +-inf print as "inf" and "-inf"


_CFG_TYPES = {"K": int, "N": int, "d": str, "constellation": str, "noise_grid": str, "trials": int, "seed": int}


def cmd_simulate(args) -> int:
    if args.config:
        try:
            cfg = read_json_object(args.config)
        except InvalidInput as exc:
            raise UsageError(f"--config: {exc}")
        for key in _CFG_TYPES:
            if key in cfg and getattr(args, key) is None:
                setattr(args, key, _cfg_value(key, cfg[key]))
    if args.K is None or args.N is None or args.d is None or args.trials is None:
        raise UsageError("simulate requires -K, -N, -d and --trials (flags or --config)")
    if args.constellation is None:
        args.constellation = "qpsk"
    if args.noise_grid is None:
        args.noise_grid = "1,0.1,0.01,0.001,0.0001"
    spec = _spec_from_args(args)
    seed = _resolve_seed(args)
    _check_count("--trials", args.trials)
    constellation = _parse_constellation(args.constellation)
    grid = _parse_grid(args.noise_grid)
    strategy = feasibility.construct_strategy(spec)
    rng = np.random.default_rng(seed)  # the channels, then the sweep's symbols and noise blocks
    channels = relaysim.draw_channels(spec.K, spec.N, rng)
    link = relaysim.Link(strategy, channels, relaysim.design_encoders(strategy, channels))
    errors, relay_hits = relaysim.run_monte_carlo(link, constellation, grid, args.trials, rng)
    relay_rate = relay_hits / (spec.N * args.trials)  # N columns of S, one pair sum each
    exact_map = relaysim.relay_map_success(constellation)
    sers = [[int(e[r].sum()) / (d_k * args.trials) if d_k else 0.0 for r, d_k in zip(link.rows, spec.d)]
            for e in errors]  # errors per level and stacked row, user k's in rows[k]

    doc = {
        "seed": seed,
        "config": {
            "K": spec.K,
            "N": spec.N,
            "d": list(spec.d),
            "constellation": constellation.name,
            "points": [[p.real, p.imag] for p in constellation.points.tolist()],
            "noise_grid": grid,
            "trials": args.trials,
        },
        "relay_map_success_exact": [exact_map.numerator, exact_map.denominator],
        "levels": [
            {
                "noise_var": var,
                "per_user_ser": ser,
                "per_user_snr_db": [_snr_db(s) for s in link.snr_db(var)],
                "relay_map_success_rate": relay_rate,
                "trials": args.trials,
            }
            for var, ser in zip(grid, sers)
        ],
    }
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["noise_var", "user", "ser", "snr_db", "relay_map_success"])
    for level in doc["levels"]:
        for k, (ser, snr) in enumerate(zip(level["per_user_ser"], level["per_user_snr_db"])):
            writer.writerow([repr(level["noise_var"]), k + 1, repr(ser), snr, repr(relay_rate)])
    _emit(_json_text(doc), args.output and args.output + ".json")
    _emit(buf.getvalue(), args.output and args.output + ".csv")
    return 0


def _cfg_value(key: str, value):
    """A --config entry as its flag would give it; lists become the flag's text."""
    if key in ("d", "noise_grid") and isinstance(value, list):
        value = ",".join(map(str, value))
    elif key == "constellation" and isinstance(value, list):
        value = json.dumps(value)  # a point list, parsed like --constellation '[[1,0],[-1,0]]'
    if not isinstance(value, _CFG_TYPES[key]) or isinstance(value, bool):
        kind = "an integer" if _CFG_TYPES[key] is int else "a string or a list"
        raise UsageError(f"--config {key} must be {kind}, got {value!r}")
    return value


def _parse_constellation(name: str) -> relaysim.Constellation:
    if name.startswith("["):  # explicit point list, e.g. "[[1,0],[-1,0]]"
        try:
            pts = complex_array(json.loads(name), 1)
        except ValueError:  # bad JSON, a point not a pair of numbers, an int past float range
            raise UsageError(f"--constellation expects a JSON list of [re, im] pairs, got {name!r}")
        return relaysim.Constellation(pts)
    try:
        return relaysim.Constellation.from_name(name)
    except InvalidInput as exc:
        raise UsageError(str(exc))


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--noise-grid expects comma-separated floats, got {text!r}")
    if not grid or not all(math.isfinite(v) and v >= 0 for v in grid):
        raise UsageError("--noise-grid must be nonempty, finite and nonnegative")
    return grid


def cmd_variety(args) -> int:
    seed = _resolve_seed(args)
    n, d = args.N, args.d_dim
    if n < 1:
        raise UsageError("-N must be >= 1")
    if not 1 <= d <= n:
        raise UsageError(f"-d must be between 1 and N={n}, got {d}")
    _check_count("--samples", args.samples)
    _check_count("--lines", args.lines)
    rng = np.random.default_rng(seed)
    if args.det_probe and (n, d) != (3, 2):
        sys.stderr.write("determinant probe requires N=3, d=2\n")
        return 2

    doc = {
        "seed": seed,
        "N": n,
        "d": d,
        "plucker_residual_max": float(variety.plucker_probe(n, d, args.samples, rng).max()),
        "samples": args.samples,
    }
    if (n, d) == (3, 2):
        dets, dims = variety.determinant_probe(args.samples, rng)
        agree = np.count_nonzero((dets < variety.DET_ZERO_THRESHOLD) == (dims > 0))
        doc["determinant_abs_min"] = float(dets.min())
        doc["triple_dims"] = sorted({int(x) for x in dims})
        doc["det_triple_agreement"] = int(agree) / args.samples
    counts, zero = variety.codim_line_probe(rng, args.lines)
    doc["line_probe"] = {
        "lines": args.lines,
        "root_counts": counts.tolist(),
        "identically_zero": zero.tolist(),
        "all_lines_hit": bool((zero | (counts >= 1)).all()),  # each line whose cubic is not identically 0 has a root
    }
    _emit(_json_text(doc), args.output)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; it keeps no state between parse_args calls."""
    parser = _Parser(prog="relay-align", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_spec=True, spec_required=True):
        if need_spec:
            p.add_argument("-K", type=int, required=spec_required, help="number of users")
            p.add_argument("-N", type=int, required=spec_required, help="antennas per user / at relay")
            p.add_argument("-d", type=str, required=spec_required, help="comma list of per-user dims")
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)")
        p.add_argument("-o", "--output", type=str, default=None, help="output path (default: stdout)")

    p = sub.add_parser("feasible", help="decide feasibility of a tuple")
    common(p)
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("construct", help="build a strategy (deterministic, or random via --dij)")
    common(p)
    p.add_argument("--dij", type=str, default=None, help="JSON file of pairwise dims keyed 'i-j', 1 <= i < j <= K")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a strategy file")
    p.add_argument("strategy_file")
    common(p, need_spec=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("genericity", help="pass rate of random strategies")
    common(p)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_genericity)

    p = sub.add_parser("simulate", help="Monte Carlo SER / equivocation sweep")
    common(p, spec_required=False)
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--constellation", type=str, default=None)
    p.add_argument("--noise-grid", dest="noise_grid", type=str, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("variety", help="Plucker / determinant / line probes")
    p.add_argument("-N", type=int, default=3)
    p.add_argument("-d", dest="d_dim", type=int, default=2)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--lines", type=int, default=20)
    p.add_argument("--det-probe", action="store_true",
                   help="require the determinant probe; it runs by default for N=3, d=2 and other shapes exit 2")
    common(p, need_spec=False)
    p.set_defaults(func=cmd_variety)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="raise", invalid="raise"):  # an overflow or a NaN is an error, never a figure
            return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (InfeasibleTuple, InconsistentPairwise) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (OSError, InvalidInput, FloatingPointError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except RelayAlignError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
