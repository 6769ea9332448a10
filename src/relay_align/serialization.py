"""JSON wire format for strategies.

Complex numbers are [re, im] pairs; matrices are row-major nested arrays;
pair bases are keyed "i-j" with 1-based user indices, i < j, and no other
spelling (parse_pair_key).  A schema_version field guards future changes.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import InvalidInput
from .feasibility import Strategy, StrategySpec

SCHEMA_VERSION = 1

__all__ = [
    "parse_pair_key", "strategy_to_dict", "strategy_from_dict", "dump_strategy", "load_strategy", "atomic_write"
]


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


def parse_pair_key(key: str, k: int) -> tuple[int, int]:
    """The 0-based pair (i, j), i < j < k, of its one key f"{i + 1}-{j + 1}"; other spellings raise InvalidInput."""
    i, _, j = key.partition("-")
    if i.isdecimal() and j.isdecimal() and len(key) <= 2 * len(str(k)) + 1:  # bounds the int() conversions
        i, j = int(i), int(j)
        if 1 <= i < j <= k and key == f"{i}-{j}":
            return i - 1, j - 1
    raise InvalidInput(f"bad pair key {key!r}: expected 'i-j', 1 <= i < j <= K={k}, no leading zeros")


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
    spec = StrategySpec(K=k, N=n, d=tuple(raw_d))
    decoded = ((parse_pair_key(key, spec.K), _decode_matrix(rows, spec.N)) for key, rows in raw_pairs.items())
    return Strategy(spec=spec, pair_bases={pair: m for pair, m in decoded if m.shape[1]})


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
