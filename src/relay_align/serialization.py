"""JSON wire format for strategies.

Complex numbers are [re, im] pairs; matrices are row-major nested arrays;
pair bases are keyed "i-j" with 1-based user indices.  A schema_version field
guards future changes.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import InvalidInput
from .feasibility import Strategy, StrategySpec

SCHEMA_VERSION = 1

__all__ = ["strategy_to_dict", "strategy_from_dict", "dump_strategy", "load_strategy", "atomic_write"]


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=np.complex128)]


def _decode_matrix(rows, n_expected: int) -> np.ndarray:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed complex matrix: {exc}") from exc
    if m.ndim != 2 and m.size:
        raise InvalidInput(f"expected a 2-d matrix, got shape {m.shape}")
    if m.shape[0] != n_expected:
        raise InvalidInput(f"matrix has {m.shape[0]} rows, expected {n_expected}")
    return m


def strategy_to_dict(strategy: Strategy) -> dict:
    spec = strategy.spec
    return {
        "schema_version": SCHEMA_VERSION,
        "K": spec.K,
        "N": spec.N,
        "d": list(spec.d),
        "pair_bases": {
            f"{i + 1}-{j + 1}": _encode_matrix(b)
            for (i, j), b in sorted(strategy.pair_bases.items())
        },
    }


def _json_int(value, field: str) -> int:
    """value if it is a JSON integer; a float or a bool is rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"strategy field {field} must be an integer, got {value!r}")
    return value


def strategy_from_dict(data: dict) -> Strategy:
    if not isinstance(data, dict):
        raise InvalidInput("strategy document must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise InvalidInput(f"unsupported schema_version {data.get('schema_version')!r}")
    try:
        k, n, raw_d, raw_pairs = data["K"], data["N"], data["d"], data["pair_bases"]
    except KeyError as exc:
        raise InvalidInput(f"missing strategy field: {exc}") from exc
    if not isinstance(raw_d, list):
        raise InvalidInput(f"strategy field d must be a list, got {raw_d!r}")
    if not isinstance(raw_pairs, dict):
        raise InvalidInput("strategy field pair_bases must be a JSON object")
    k, n = _json_int(k, "K"), _json_int(n, "N")
    spec = StrategySpec(K=k, N=n, d=tuple(_json_int(x, "d") for x in raw_d))
    pair_bases = {}
    for key, rows in raw_pairs.items():
        try:
            i_s, j_s = key.split("-")
            i, j = int(i_s) - 1, int(j_s) - 1
        except ValueError as exc:
            raise InvalidInput(f"bad pair key {key!r}") from exc
        if not 0 <= i < j < k:
            raise InvalidInput(f"pair key {key!r} out of range for K={k}")
        m = _decode_matrix(rows, n)
        if m.shape[1]:
            pair_bases[(i, j)] = m
    return Strategy(spec=spec, pair_bases=pair_bases)


def atomic_write(path: str, text: str) -> None:
    """Write a file via temp-file-plus-rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_strategy(strategy: Strategy, path: str) -> None:
    atomic_write(path, json.dumps(strategy_to_dict(strategy), indent=2, sort_keys=True) + "\n")


def load_strategy(path: str) -> Strategy:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"invalid JSON in {path}: {exc}") from exc
    return strategy_from_dict(data)
