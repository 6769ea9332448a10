"""JSON wire format for strategies.

Complex numbers are [re, im] pairs of JSON numbers; matrices are row-major
nested arrays; pair bases are keyed "i-j" with 1-based user indices, i < j,
and no other spelling: feasibility.pair_key writes it and
feasibility.parse_pair_key reads it.  A schema_version field guards future
changes.  dump_strategy writes the one strategy file layout: json's indent=2
layout with sorted keys, except that each pair basis sits on one line, so
json's C encoder writes nearly all of the file.  The reader takes any JSON
layout and converts each basis in one numpy call (complex_array).
"""

from __future__ import annotations

import itertools
import json
import os
import secrets

import numpy as np

from .errors import InvalidInput
from .feasibility import Strategy, StrategySpec, pair_key, parse_pair_key

SCHEMA_VERSION = 1

__all__ = [
    "complex_array", "strategy_to_dict", "dump_strategy", "strategy_from_dict", "load_strategy",
    "atomic_write", "read_json_object",
]


def _encode_matrix(m: np.ndarray) -> list:
    """Rows of [re, im] Python floats; an N x 0 block gives N empty rows."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return m.view(np.float64).reshape(*m.shape, 2).tolist()


def complex_array(data, ndim: int) -> np.ndarray:
    """The ndim-axis complex128 array of nested [re, im] pairs, from one float64 conversion.

    Every number must be a JSON int or float: a bool, string or null raises
    ValueError, as do ragged nesting, a pair of other than two numbers and an
    integer past float range.  An array with no entries may leave out the pair
    axis, so N empty rows give an N x 0 matrix.
    """
    leaves = data
    for _ in range(ndim):
        leaves = itertools.chain.from_iterable(leaves)
    try:
        kinds = set(map(type, leaves))  # a bare number in place of a pair is not iterable: TypeError
        a = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past float range
        raise ValueError(str(exc)) from exc
    if not kinds <= {int, float}:
        raise ValueError(f"entries must be numbers, got {sorted(k.__name__ for k in kinds - {int, float})}")
    if a.size == 0 and a.ndim == ndim:
        return a.astype(np.complex128)
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise ValueError(f"expected {ndim}-d nested [re, im] pairs, got shape {a.shape}")
    return a.view(np.complex128)[..., 0]


def _decode_matrix(key: str, rows, n_expected: int) -> np.ndarray:
    try:
        m = complex_array(rows, 2)
    except ValueError as exc:
        raise InvalidInput(f"pair basis {key}: malformed complex matrix: {exc}") from exc
    if m.shape[0] != n_expected:
        raise InvalidInput(f"pair basis {key}: matrix has {m.shape[0]} rows, expected {n_expected}")
    return m


def strategy_to_dict(strategy: Strategy) -> dict:
    spec = strategy.spec
    return {
        "schema_version": SCHEMA_VERSION,
        "K": spec.K,
        "N": spec.N,
        "d": list(spec.d),
        "pair_bases": {  # a zero-width pair is left out: the reader takes an omitted pair as N x 0
            pair_key(p): _encode_matrix(b) for p, b in strategy.pair_bases.items() if b.shape[1]
        },
    }


def dump_strategy(strategy: Strategy) -> str:
    """The strategy file text: json.dumps(indent=2, sort_keys=True) of strategy_to_dict, each pair basis on one line.

    json's indenting encoder is pure Python; each basis is written by its C
    encoder instead, so only the few lines around the bases go through it.
    The text parses to the same JSON value as the fully indented one.
    """
    doc = strategy_to_dict(strategy)
    bases = doc["pair_bases"]
    text = json.dumps({**doc, "pair_bases": {}}, indent=2, sort_keys=True)
    if bases:
        lines = ",\n".join(f"    {json.dumps(key)}: {json.dumps(bases[key])}" for key in sorted(bases))
        text = text.replace('"pair_bases": {}', f'"pair_bases": {{\n{lines}\n  }}', 1)
    return text + "\n"


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
    pair_bases = {parse_pair_key(key, spec.K): _decode_matrix(key, rows, spec.N) for key, rows in raw_pairs.items()}
    return Strategy(spec=spec, pair_bases=pair_bases)


def atomic_write(path: str, text: str) -> None:
    """Write a file via temp-file-plus-rename so readers never see partial output.

    The file gets the mode open(path, "w") gives a new file, 0o666 less the
    umask, whether or not it existed: os.open applies the umask to the temp
    file, which the rename keeps.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise InvalidInput(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r} in one JSON object")
    return doc


def read_json_object(path: str) -> dict:
    """The JSON object in the file at path.

    Invalid JSON, a key repeated within any one object, or a document that is
    not an object raises InvalidInput.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # malformed JSON, bad UTF-8, or an integer past the digit limit of int()
        raise InvalidInput(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInput(f"{path} does not hold a JSON object")
    return doc


def load_strategy(path: str) -> Strategy:
    return strategy_from_dict(read_json_object(path))
