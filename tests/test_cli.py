import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relay_align
from relay_align import feasibility
from relay_align.cli import _parse_constellation, main
from relay_align.errors import InvalidInput, StrategyInvalid
from relay_align.feasibility import (
    construct_strategy,
    parse_pair_key,
    Strategy,
    StrategySpec,
    strategy_from_pairwise,
    symmetric_pairwise_table,
    verify_strategy,
)
from relay_align.subspace import numeric_rank, rank_threshold
from relay_align.serialization import (
    atomic_write,
    dump_strategy,
    load_strategy,
    strategy_from_dict,
    strategy_to_dict,
)

from pair_slices import pair_slices


GOLDEN = Path(__file__).resolve().parent / "golden"


def run(*argv):
    return main(list(argv))


def reference_encode(m) -> list:
    """A pair basis as strategy files hold it, element by element: rows of [float(re), float(im)]."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=np.complex128)]


def reference_pair_bases(s) -> dict:
    """The "pair_bases" value of a strategy file: each pair of nonzero width under its 1-based "i-j" key."""
    return {f"{i + 1}-{j + 1}": reference_encode(b) for (i, j), b in s.pair_bases.items() if b.shape[1]}


def lone_call(argv, seed_env=None) -> tuple[int, str]:
    """Exit code and stdout of `python -m relay_align.cli argv`, a fresh process running one command."""
    env = {k: v for k, v in os.environ.items() if k != "RELAY_ALIGN_SEED"}
    env["PYTHONPATH"] = str(Path(relay_align.__file__).resolve().parent.parent)
    if seed_env is not None:
        env["RELAY_ALIGN_SEED"] = seed_env
    proc = subprocess.run([sys.executable, "-m", "relay_align.cli", *argv], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


class TestFeasibleCommand:
    def test_feasible_tuple(self, capsys):
        assert run("feasible", "-K", "3", "-N", "3", "-d", "2,2,2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasible"] is True and doc["reason"] == "ok"
        assert "seed" in doc

    def test_sum_violation(self, capsys):
        assert run("feasible", "-K", "3", "-N", "3", "-d", "2,2,1") == 2
        assert json.loads(capsys.readouterr().out)["reason"] == "sum"

    def test_bound_violation(self, capsys):
        assert run("feasible", "-K", "2", "-N", "3", "-d", "4,2") == 2
        assert json.loads(capsys.readouterr().out)["reason"] == "bound"

    def test_malformed_d(self):
        assert run("feasible", "-K", "3", "-N", "3", "-d", "2,x,2") == 1

    def test_wrong_d_length(self):
        assert run("feasible", "-K", "3", "-N", "3", "-d", "2,2") == 1

    def test_invalid_spec_usage_error(self, capsys):
        assert run("feasible", "-K", "3", "-N", "0", "-d", "0,0,0", "--seed", "0") == 1
        assert capsys.readouterr() == ("", "usage error: ambient dimension must be >= 1\n")


class TestConstructAndVerify:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "strategy.json"
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,2", "-o", str(out)) == 0
        assert run("verify", str(out)) == 0

    def test_two_user_whole_space(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("construct", "-K", "2", "-N", "4", "-d", "4,4", "-o", str(out)) == 0
        strategy = load_strategy(str(out))
        assert strategy.subspaces[0].shape[1] == 4
        a, b = strategy.subspaces
        assert np.linalg.norm(a @ a.conj().T - b @ b.conj().T) < 1e-9

    def test_infeasible_exits_2(self, tmp_path):
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,1", "-o", str(tmp_path / "x.json")) == 2

    def test_unwritable_path_exits_1(self):
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,2", "-o", "/nonexistent/dir/out.json") == 1

    def test_verify_names_failed_condition(self, tmp_path, capsys):
        e = np.eye(3)
        doc = {
            "schema_version": 1,
            "K": 3,
            "N": 3,
            "d": [2, 2, 2],
            "pair_bases": {
                "1-2": [[[1, 0]], [[0, 0]], [[0, 0]]],
                "1-3": [[[0, 0]], [[1, 0]], [[0, 0]]],
                "2-3": [[[1, 0]], [[0, 0]], [[0, 0]]],
            },
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any("global" in c for c in report["failed_conditions"])

    def test_verify_rejects_undeclared_dims(self, tmp_path, capsys):
        # declares d = 2,2,2 while the pair bases realise 3,2,1 (B_12 = [e1 e2], B_13 = [e3]);
        # the same document as the benchmark's certify workload
        doc = {
            "schema_version": 1,
            "K": 3,
            "N": 3,
            "d": [2, 2, 2],
            "pair_bases": {
                "1-2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                "1-3": [[[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]],
            },
        }
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["dims"] == [3, 2, 1]
        assert "declared dimensions d" in report["failed_conditions"]

    @pytest.mark.parametrize(
        "content",
        [
            b'{"1-2": ',
            b"\xff\xfe{}",
            b"[1]",
            b'{"1-2": null, "1-3": 1, "2-3": 1}',
            b'{"1-2": 1.5, "1-3": 1, "2-3": 1}',
            b'{"1-2": true, "1-3": 1, "2-3": 1}',
        ],
        ids=["truncated", "not-utf8", "not-an-object", "null-dimension", "float-dimension", "bool-dimension"],
    )
    def test_malformed_pairwise_file_usage_error(self, tmp_path, content, capsys):
        dij = tmp_path / "dij.json"
        dij.write_bytes(content)
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,2", "--dij", str(dij)) == 1
        assert "usage error" in capsys.readouterr().err

    def test_non_utf8_strategy_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run("verify", str(path)) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_truncated_json_exits_1(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"schema_version": 1, "K": 3')
        assert run("verify", str(path)) == 1

    @pytest.mark.parametrize("digits", [400, 5000], ids=["past-float-range", "past-int-digit-limit"])
    def test_verify_integer_too_large_exits_1(self, tmp_path, capsys, digits):
        # a JSON integer no float can hold: an error naming the input, never a traceback
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        doc["pair_bases"]["1-2"][0][0] = ["HUGE", 0]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * digits))
        assert run("verify", str(path)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("scale, rc", [(2.0, 1), (1 + 1e-9, 1), (1 + 1e-12, 0)])
    def test_verify_pair_basis_orthonormality(self, tmp_path, scale, rc):
        # pair bases must pass the subspace rule: finite, Gram matrix within 1e-10 of the identity
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        doc["pair_bases"]["1-2"] = [[[re * scale, im] for re, im in row] for row in doc["pair_bases"]["1-2"]]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == rc

    def test_pairwise_construct(self, tmp_path):
        dij = tmp_path / "dij.json"
        dij.write_text(json.dumps({"1-2": 1, "3-4": 1}))
        out = tmp_path / "paired.json"
        assert run("construct", "-K", "4", "-N", "2", "-d", "1,1,1,1", "--dij", str(dij), "-o", str(out)) == 0
        assert run("verify", str(out)) == 0


# the strategies of the writer tests: the widest coordinate case, N x 0 blocks, random bases and -0.0
with_reference_strategies = pytest.mark.parametrize(
    "make",
    [
        lambda: construct_strategy(StrategySpec(16, 32, (4,) * 16)),
        lambda: construct_strategy(StrategySpec(4, 5, (5, 3, 1, 1))),  # three N x 0 blocks
        lambda: strategy_from_pairwise(symmetric_pairwise_table(3, 3), np.random.default_rng(3)),
        lambda: strategy_from_pairwise(
            StrategySpec(4, 5, (2, 3, 3, 2), pairwise={(0, 2): 1, (0, 3): 1, (1, 2): 2, (1, 3): 1}),
            np.random.default_rng(0),
        ),  # with N x 0 blocks
        lambda: Strategy(  # negated coordinate blocks hold -0.0 in both parts
            StrategySpec(3, 3, (2, 2, 2)),
            {p: -b for p, b in construct_strategy(StrategySpec(3, 3, (2, 2, 2))).pair_bases.items()},
        ),
    ],
    ids=["coordinate-K16", "coordinate-zero-pairs", "pairwise", "pairwise-zero-pairs", "negative-zero"],
)


def tilted_strategy(spec, blocks, tilt, factor):
    """Coordinate pair blocks, with B_tilt = (e_a + s e_c)/|.| leaning toward the coordinate block e_a.

    The pair frame's smallest singular value, about s/sqrt(2), is put at
    factor times its rank_threshold, whose absolute floor rules at this scale.
    """
    e = np.eye(spec.N, dtype=complex)
    pair, a, c = tilt
    s = factor * rank_threshold((spec.N, spec.N), np.sqrt(2)) * np.sqrt(2)
    pair_bases = {p: e[:, cols] for p, cols in blocks.items()}
    pair_bases[pair] = (e[:, [a]] + s * e[:, [c]]) / np.sqrt(1 + s * s)
    return Strategy(spec=spec, pair_bases=pair_bases)


class TestVerifyVerdict:
    """verify passes iff the relay map exists; only a failing file pays for verify_strategy."""

    TILTS = {
        # B_23 leans toward B_12 = e1: user 2's own blocks lose rank with the frame, so its V_2 is a line
        "user-blocks": (StrategySpec(3, 3, (2, 2, 2)), {(0, 1): [0], (0, 2): [1]}, ((1, 2), 0, 2)),
        # B_34 leans toward B_12 = e1, a pair of other users: every V_i stays a plane, but V_1 and V_2
        # each meet V_3 and V_4 in one more line, so the pair intersections are no basis
        "pair-frame": (StrategySpec(4, 4, (2, 2, 2, 2)), {(0, 1): [0], (0, 2): [2], (1, 3): [3]}, ((2, 3), 0, 1)),
    }

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    @pytest.mark.parametrize("case", sorted(TILTS))
    def test_one_threshold_decides(self, tmp_path, capsys, case, factor):
        spec, blocks, tilt = self.TILTS[case]
        s = tilted_strategy(spec, blocks, tilt, factor)
        frame = np.hstack(list(s.pair_bases.values()))
        rank = numeric_rank(np.linalg.svd(frame, compute_uv=False), frame.shape)
        passes = factor > 1
        assert rank == (spec.N if passes else spec.N - 1)
        try:
            s.relay_map()
            relay_map_ok = True
        except StrategyInvalid:
            relay_map_ok = False
        assert relay_map_ok == verify_strategy(s.subspaces, spec.N).ok == passes
        path = tmp_path / "tilted.json"
        path.write_text(dump_strategy(s))
        assert run("verify", str(path)) == (0 if passes else 2)
        assert json.loads(capsys.readouterr().out)["ok"] is passes

    @with_reference_strategies
    def test_pass_report_without_verify_strategy(self, tmp_path, capsys, monkeypatch, make):
        s = make()
        want = verify_strategy(s.subspaces, s.spec.N)
        path = tmp_path / "s.json"
        path.write_text(dump_strategy(s))

        def refuse(*args):
            raise AssertionError("verify_strategy ran for a valid file")

        monkeypatch.setattr(feasibility, "verify_strategy", refuse)
        assert run("verify", str(path)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and want.ok and doc["failed_conditions"] == []
        assert doc["dims"] == list(want.dims)
        assert doc["pair_dims"] == {f"{i + 1}-{j + 1}": v for (i, j), v in want.pair_dims.items()}
        assert doc["per_user_decomposition_ok"] == list(want.per_user_ok)
        assert doc["global_decomposition_ok"] is want.global_ok
        assert doc["worst_triple_intersection_dim"] == want.worst_triple_dim == 0


class TestSerialization:
    def test_dict_round_trip_verifies_identically(self):
        s = construct_strategy(StrategySpec(4, 5, (5, 3, 1, 1)))
        back = strategy_from_dict(strategy_to_dict(s))
        assert back.spec == s.spec
        for p, b in s.pair_bases.items():
            if b.shape[1]:
                assert np.array_equal(back.pair_bases[p], b)
        assert verify_strategy(back.subspaces, 5).ok

    def test_file_round_trip_exact(self, tmp_path):
        s = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        path = tmp_path / "s.json"
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,2", "-o", str(path)) == 0
        back = load_strategy(str(path))
        for p, b in s.pair_bases.items():
            assert np.array_equal(back.pair_bases[p], b)

    @with_reference_strategies
    def test_encoding_equals_reference(self, make):
        s = make()
        got, expected = strategy_to_dict(s)["pair_bases"], reference_pair_bases(s)
        assert got == expected
        assert json.dumps(got) == json.dumps(expected)  # the text tells -0.0 from 0.0

    @with_reference_strategies
    def test_dump_strategy(self, make, tmp_path):
        s = make()
        text = dump_strategy(s)
        assert json.loads(text) == json.loads(json.dumps(strategy_to_dict(s), indent=2, sort_keys=True))
        basis_lines = [line.rstrip(",") for line in text.splitlines() if line.startswith('    "')]
        assert len(basis_lines) == len(reference_pair_bases(s))  # each line one whole "i-j": basis member
        assert [json.loads(f"{{{line}}}") for line in basis_lines] == [
            {key: rows} for key, rows in sorted(strategy_to_dict(s)["pair_bases"].items())
        ]
        path = tmp_path / "s.json"
        path.write_text(text)
        back = load_strategy(str(path))
        assert back.pair_bases.keys() == s.pair_bases.keys()
        for p, b in s.pair_bases.items():
            assert back.pair_bases[p].shape == b.shape and back.pair_bases[p].tobytes() == b.tobytes()

    def test_reference_cases_hold_negative_zero_and_empty_blocks(self):
        negated = {p: -b for p, b in construct_strategy(StrategySpec(3, 3, (2, 2, 2))).pair_bases.items()}
        assert "-0.0" in json.dumps(reference_encode(negated[0, 1]))
        zero_pairs = construct_strategy(StrategySpec(4, 5, (5, 3, 1, 1)))
        empty = [reference_encode(b) for b in zero_pairs.pair_bases.values() if b.shape[1] == 0]
        assert empty and all(rows == [[]] * 5 for rows in empty)

    def test_loaded_table_keeps_zero_pairs(self):
        loaded = load_strategy(str(GOLDEN / "construct.out"))
        built = construct_strategy(StrategySpec(4, 5, (5, 3, 1, 1)))
        assert loaded.pair_dims() == built.pair_dims()
        assert sorted(built.pair_dims().values()).count(0) == 3

    def test_wide_file_and_layout_hold_only_nonempty_pairs(self, tmp_path, capsys, monkeypatch):
        # the K=16 N=32 coordinate strategy shares 8 coordinates in pairs of width 4; the other 112 pairs are empty
        checked = []
        real_check = feasibility._check_orthonormal
        monkeypatch.setattr(feasibility, "_check_orthonormal", lambda b: checked.append(b.shape) or real_check(b))
        d = ",".join(["4"] * 16)
        s = construct_strategy(StrategySpec(16, 32, (4,) * 16))
        assert checked == [(32, 4)] * 8
        checked.clear()
        path = tmp_path / "wide.json"
        assert run("construct", "-K", "16", "-N", "32", "-d", d, "--seed", "0", "-o", str(path)) == 0
        assert len(checked) == 8 and len(json.loads(path.read_text())["pair_bases"]) == 8
        checked.clear()
        back = load_strategy(str(path))
        assert len(checked) == 8 and back.pair_dims() == s.pair_dims()
        checked.clear()
        assert run("verify", str(path), "--seed", "0") == 0
        assert len(checked) == 8
        pair_dims = json.loads(capsys.readouterr().out)["pair_dims"]
        assert len(pair_dims) == 120 and sum(pair_dims.values()) == 32
        assert sorted(pair_dims.values()) == [0] * 112 + [4] * 8

    def test_user_bases_split_into_pair_blocks(self):
        s = load_strategy(str(GOLDEN / "construct-dij.out"))
        slices = pair_slices(s)
        for i in range(s.spec.K):
            widths = 0
            for j in range(s.spec.K):
                if j != i:
                    block = s.user_bases[i][:, slices[i, j]]
                    assert np.array_equal(block, s.pair_bases[min(i, j), max(i, j)])
                    widths += block.shape[1]
            assert widths == s.spec.d[i]

    def test_bad_schema_version(self):
        with pytest.raises(InvalidInput):
            strategy_from_dict({"schema_version": 99})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pair_bases", []),
            ("K", 3.7),
            ("N", 3.0),
            ("K", True),
            ("d", [2.9, 2, 2]),
            ("d", [2, True, 2]),
            ("d", "222"),
        ],
        ids=["pair-bases-list", "float-K", "float-N", "bool-K", "float-d", "bool-d", "string-d"],
    )
    def test_malformed_field_exits_1(self, tmp_path, capsys, field, value):
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        doc[field] = value
        with pytest.raises(InvalidInput):
            strategy_from_dict(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_object_document_rejected(self):
        with pytest.raises(InvalidInput, match="strategy document must be a JSON object"):
            strategy_from_dict([])

    @pytest.mark.parametrize("field", ["K", "N", "d", "pair_bases"])
    def test_missing_field_rejected(self, field):
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        del doc[field]
        with pytest.raises(InvalidInput, match=f"missing strategy field: '{field}'"):
            strategy_from_dict(doc)

    def test_basis_with_wrong_row_count_rejected(self):
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        doc["pair_bases"]["1-2"] = doc["pair_bases"]["1-2"][:2]
        with pytest.raises(InvalidInput, match="matrix has 2 rows, expected 3"):
            strategy_from_dict(doc)

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        # a lone surrogate cannot be encoded, so the write fails after the temp file exists
        target = tmp_path / "s.json"
        target.write_text("before")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(str(target), "\ud800")
        assert list(tmp_path.iterdir()) == [target] and target.read_text() == "before"

    def test_written_files_get_the_mode_of_a_new_file(self, tmp_path):
        # 0o666 less the umask, as open(path, "w") gives a new file: for a new file and for one written over
        fresh, old = tmp_path / "f.json", tmp_path / "old.json"
        old.write_text("before")
        old.chmod(0o644)
        umask = os.umask(0o022)
        try:
            assert main(["feasible", "-K", "3", "-N", "3", "-d", "2,2,2", "--seed", "0", "-o", str(fresh)]) == 0
            atomic_write(str(old), "after")
        finally:
            os.umask(umask)
        assert [stat.S_IMODE(f.stat().st_mode) for f in (fresh, old)] == [0o644, 0o644]
        assert sorted(tmp_path.iterdir()) == [fresh, old] and old.read_text() == "after"


# JSON texts that stand where one [re, im] pair belongs: in a strategy file or a --constellation point list
BAD_COMPLEX = {
    "string": '["1", 0]',
    "null": "[null, 0]",
    "dict": '{"re": 1, "im": 0}',
    "three-numbers": "[1, 0, 0]",
    "bare-number": "1",
    "past-float-range": "[1" + "0" * 400 + ", 0]",
    "inf": "[1e999, 0]",
    "nan": "[NaN, 0]",
    "true": "[true, 0]",  # would read as 1 + 0j, the entry it replaces, and pass
    "false": "[1, false]",
}


class TestComplexEntries:
    """Every JSON entry that is not a pair of numbers is rejected, the same way in strategy files and point lists."""

    @staticmethod
    def strategy_text(level: str, text: str) -> str:
        """The K=3 N=3 coordinate strategy file with the first row or entry of pair 1-2 swapped for a JSON text."""
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        rows = doc["pair_bases"]["1-2"]
        if level == "row":
            rows[0] = "SWAP"
        else:
            rows[0][0] = "SWAP"
        return json.dumps(doc).replace('"SWAP"', text)

    @pytest.mark.parametrize(
        "level, text",
        [("entry", text) for text in BAD_COMPLEX.values()] + [("row", "[[1, 0], [0, 0]]")],
        ids=list(BAD_COMPLEX) + ["ragged-row"],
    )
    def test_strategy_file_rejects(self, tmp_path, capsys, level, text):
        doc_text = self.strategy_text(level, text)
        with pytest.raises(InvalidInput, match="malformed complex matrix|non-finite"):
            strategy_from_dict(json.loads(doc_text))
        path = tmp_path / "s.json"
        path.write_text(doc_text)
        assert run("verify", str(path)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @with_reference_strategies
    def test_omitted_pair_and_empty_rows_read_as_n_by_0(self, tmp_path, capsys, make):
        s = make()
        n = s.spec.N
        sparse = tmp_path / "sparse.json"
        sparse.write_text(dump_strategy(s))
        # the same strategy with every pair written, a zero-width one as N empty rows
        doc = strategy_to_dict(s)
        every_pair = {f"{i + 1}-{j + 1}": reference_encode(b) for (i, j), b in s.pair_bases.items()}
        assert every_pair.keys() - doc["pair_bases"].keys() == {k for k, rows in every_pair.items() if rows == [[]] * n}
        dense = tmp_path / "dense.json"
        dense.write_text(json.dumps({**doc, "pair_bases": every_pair}, indent=2, sort_keys=True))
        a, b = load_strategy(str(sparse)), load_strategy(str(dense))
        assert list(a.pair_bases) == list(b.pair_bases) == list(s.pair_bases)
        for p, want in s.pair_bases.items():
            assert a.pair_bases[p].shape == b.pair_bases[p].shape == want.shape
            assert a.pair_bases[p].tobytes() == b.pair_bases[p].tobytes()
        for x, y in zip(a.user_bases, b.user_bases, strict=True):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
        printed = []
        for path in (sparse, dense):
            assert run("verify", str(path), "--seed", "0") == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert json.loads(printed[0])["ok"] is True

    def test_integer_entries(self, tmp_path):
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        as_ints = {
            key: [[[int(re), int(im)] for re, im in row] for row in rows] for key, rows in doc["pair_bases"].items()
        }
        back = strategy_from_dict({**doc, "pair_bases": as_ints})
        for p, b in strategy_from_dict(doc).pair_bases.items():
            assert back.pair_bases[p].dtype == np.complex128 and np.array_equal(back.pair_bases[p], b)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**doc, "pair_bases": as_ints}))
        assert run("verify", str(path)) == 0

    def test_negative_zero_keeps_its_sign_bit(self):
        s = construct_strategy(StrategySpec(3, 3, (2, 2, 2)))
        negated = {p: -b for p, b in s.pair_bases.items()}
        back = strategy_from_dict(strategy_to_dict(Strategy(s.spec, negated)))
        for p, b in negated.items():
            assert np.signbit(b.imag).all()
            assert back.pair_bases[p].tobytes() == b.tobytes()

    @pytest.mark.parametrize("text", list(BAD_COMPLEX.values()), ids=list(BAD_COMPLEX))
    def test_constellation_rejects(self, capsys, text):
        points = f"[{text}, [-1, 0]]"
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "5", "--constellation", points) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: --constellation") or (err.startswith("error: ") and "finite" in err)

    def test_constellation_integer_and_negative_zero_points(self):
        points = _parse_constellation("[[1, -0.0], [-1, 0]]").points
        assert points.tolist() == [1, -1]
        assert np.signbit(points.imag).tolist() == [True, False]


BAD_PAIR_KEYS = ["01-2", "2-1", "1-1", "1-4", "a-b"]  # at K = 3


class TestPairKeys:
    """Each pair has one key, "i-j" with 1 <= i < j <= K, in strategy files and --dij tables alike."""

    @pytest.mark.parametrize("key", BAD_PAIR_KEYS)
    def test_strategy_file_rejects_key(self, tmp_path, capsys, key):
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        doc["pair_bases"][key] = doc["pair_bases"].pop("1-2")
        with pytest.raises(InvalidInput, match=repr(key)):
            strategy_from_dict(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    def test_strategy_file_alias_is_not_merged(self, tmp_path, capsys):
        # "01-2" once replaced the basis of "1-2": here it carries B_13, so a merge would drop a basis
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        doc["pair_bases"]["01-2"] = doc["pair_bases"]["1-3"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == 1
        assert "'01-2'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", BAD_PAIR_KEYS)
    def test_pairwise_table_rejects_key(self, tmp_path, capsys, key):
        dij = tmp_path / "dij.json"
        dij.write_text(json.dumps({key: 1, "1-3": 1, "2-3": 1}))
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,2", "--dij", str(dij)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and repr(key) in err

    def test_pairwise_table_alias_is_not_merged(self, tmp_path, capsys):
        # "2-1" once overrode "1-2", and the table failed its row sums (exit 2) on d_12 = 5
        dij = tmp_path / "dij.json"
        dij.write_text(json.dumps({"1-2": 1, "2-1": 5, "1-3": 1, "2-3": 1}))
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,2", "--dij", str(dij)) == 1
        assert "usage error: " in capsys.readouterr().err


class TestMessagesNameUsersFrom1:
    """A message names user i as i + 1 and pair (i, j) by its key "i-j", as files and outputs do."""

    def test_pairwise_row_sum_names_the_user(self, tmp_path, capsys):
        # user 2 (0-based 1) has d_12 + d_23 = 3; the message once named it user 1
        dij = tmp_path / "dij.json"
        dij.write_text('{"1-2": 1, "1-3": 1, "2-3": 2}')
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,2", "--dij", str(dij)) == 2
        assert capsys.readouterr() == ("", "pairwise row sum for user 2 is 3, expected d_i=2\n")

    def test_non_orthonormal_pair_basis_names_its_key(self, tmp_path, capsys):
        # the message once named the pair (1, 2)
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        doc["pair_bases"]["2-3"] = [[[2 * re, im] for re, im in row] for row in doc["pair_bases"]["2-3"]]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == 1
        assert capsys.readouterr() == ("", "error: pair basis 2-3: basis columns are not orthonormal\n")

    def test_short_pair_basis_names_its_key(self, tmp_path, capsys):
        # the message once named no pair
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        doc["pair_bases"]["1-2"] = doc["pair_bases"]["1-2"][:2]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == 1
        assert capsys.readouterr() == ("", "error: pair basis 1-2: matrix has 2 rows, expected 3\n")


class TestRefusalsThroughMain:
    """Refusals of the library that a command reaches, each with its exit code and its one message line."""

    def test_negative_user_dimension_usage_error(self, capsys):
        assert run("feasible", "-K", "2", "-N", "1", "-d", "3,-1") == 1
        assert capsys.readouterr() == ("", "usage error: per-user dimensions must be >= 0\n")

    def test_negative_pairwise_dimension_exits_2(self, tmp_path, capsys):
        dij = tmp_path / "dij.json"
        dij.write_text('{"1-2": -1}')
        assert run("construct", "-K", "2", "-N", "1", "-d", "1,1", "--dij", str(dij)) == 2
        assert capsys.readouterr() == ("", "pairwise dimensions must be >= 0\n")

    def test_infeasible_pairwise_tuple_exits_2(self, tmp_path, capsys):
        # the table's row sums match d, but sum(d) = 2 is not 2N = 6
        dij = tmp_path / "dij.json"
        dij.write_text('{"1-2": 1}')
        assert run("construct", "-K", "3", "-N", "3", "-d", "1,1,0", "--dij", str(dij)) == 2
        assert capsys.readouterr() == ("", "tuple (K=3, N=3, d=(1, 1, 0)) is not feasible\n")

    def test_genericity_dimension_past_n_exits_1(self, capsys):
        assert run("genericity", "-K", "2", "-N", "3", "-d", "4,2") == 1
        assert capsys.readouterr() == ("", "error: per-user dimension exceeds ambient dimension\n")


class TestRepeatedJsonKeys:
    """A key written twice in one JSON object exits 1 and is named, in every file the CLI reads."""

    def test_pairwise_table(self, tmp_path, capsys):
        dij = tmp_path / "dij.json"
        dij.write_text('{"1-2": 5, "1-2": 1, "1-3": 1, "2-3": 1}')
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,2", "--dij", str(dij)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --dij") and "'1-2'" in err

    def test_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"K": 3, "N": 3, "d": [2, 2, 2], "noise_grid": [0.1], "trials": 0, "trials": 5}')
        assert run("simulate", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --config") and "'trials'" in err

    def test_strategy_file_pair_bases(self, tmp_path, capsys):
        # the first "1-2" carries B_13; keeping only the last value would verify
        doc = strategy_to_dict(construct_strategy(StrategySpec(3, 3, (2, 2, 2))))
        b13 = json.dumps(doc["pair_bases"]["1-3"])
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc).replace('"pair_bases": {', f'"pair_bases": {{"1-2": {b13}, ', 1))
        assert run("verify", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'1-2'" in err


class TestGenericity:
    def test_three_user_rate_one(self, capsys):
        assert run("genericity", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "100", "--seed", "1") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "K,N,d,trials,seed,pass_rate"
        assert lines[1].endswith("1.0000")

    def test_four_lines_rate_zero(self, capsys):
        assert run("genericity", "-K", "4", "-N", "2", "-d", "1,1,1,1", "--trials", "100", "--seed", "1") == 0
        assert capsys.readouterr().out.strip().endswith("0.0000")

    def test_trivial_whole_space(self, capsys):
        assert run("genericity", "-K", "2", "-N", "5", "-d", "5,5", "--trials", "10", "--seed", "0") == 0
        assert capsys.readouterr().out.strip().endswith("1.0000")

    def test_trial_count_past_numpy_array_size_exits_1(self, capsys):
        # rejected before any draw; never test a huge count numpy can represent, it would run it
        assert run("genericity", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "1" + "0" * 30) == 1
        assert capsys.readouterr().err.startswith("error: --trials=1" + "0" * 30)


class TestSimulate:
    def test_zero_trials_usage_error(self):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "0") == 1

    def test_infeasible_exits_2(self):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,1", "--trials", "10") == 2

    def test_trial_count_past_numpy_array_size_exits_1(self, capsys):
        # rejected before any buffer is made; never test a huge count numpy can size, it would allocate it
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "1" + "0" * 30) == 1
        assert capsys.readouterr().err.startswith("error: --trials=1" + "0" * 30)

    def test_usage_error_beats_infeasible(self):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,1", "--trials", "10", "--noise-grid", "nan") == 1

    @pytest.mark.parametrize("grid", ["nan", "inf", "1,nan"])
    def test_nonfinite_noise_level_usage_error(self, grid, capsys):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "5", "--noise-grid", grid) == 1
        assert "usage error: --noise-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("dropped", ["-K", "-N", "-d", "--trials"])
    def test_missing_shape_or_trials_usage_error(self, dropped, capsys):
        flags = {"-K": "3", "-N": "3", "-d": "2,2,2", "--trials": "5"}
        del flags[dropped]
        assert run("simulate", *[t for kv in flags.items() for t in kv], "--seed", "0") == 1
        err = "usage error: simulate requires -K, -N, -d and --trials (flags or --config)\n"
        assert capsys.readouterr() == ("", err)

    def test_noise_grid_not_floats_usage_error(self, capsys):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "5", "--noise-grid", "0.1,abc") == 1
        assert capsys.readouterr() == ("", "usage error: --noise-grid expects comma-separated floats, got '0.1,abc'\n")

    def test_unknown_constellation_usage_error(self, capsys):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "5", "--constellation", "8psk") == 1
        assert capsys.readouterr() == ("", "usage error: unknown constellation '8psk'\n")

    @pytest.mark.parametrize("points", ["[1]", "[oops", "[[1,0,2]]"])
    def test_malformed_constellation_usage_error(self, points, capsys):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "5", "--constellation", points) == 1
        assert "usage error: --constellation" in capsys.readouterr().err

    def test_outputs_and_determinism(self, tmp_path, capsys):
        args = (
            "simulate", "-K", "3", "-N", "3", "-d", "2,2,2",
            "--trials", "200", "--noise-grid", "0.1,0.001", "--seed", "9",
        )
        assert run(*args, "-o", str(tmp_path / "a")) == 0
        assert run(*args, "-o", str(tmp_path / "b")) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        # -o writes what stdout prints: the JSON document, then the CSV table
        assert capsys.readouterr().out == ""
        assert run(*args) == 0
        stdout = capsys.readouterr().out.encode()
        assert (tmp_path / "a.json").read_bytes() + (tmp_path / "a.csv").read_bytes() == stdout
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc["seed"] == 9
        assert doc["relay_map_success_exact"] == [9, 16]
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "noise_var,user,ser,snr_db,relay_map_success"

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "K": 3, "N": 3, "d": [2, 2, 2],
            "constellation": "bpsk", "noise_grid": [0.01], "trials": 100,
        }))
        assert run("simulate", "--config", str(cfg), "--seed", "2") == 0
        out = capsys.readouterr().out
        assert '"constellation": "bpsk"' in out

    @staticmethod
    def write_config(tmp_path, constellation) -> str:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "K": 3, "N": 3, "d": [2, 2, 2], "constellation": constellation, "noise_grid": [0.01], "trials": 20,
        }))
        return str(cfg)

    def test_config_constellation_point_list(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, [[1, 0], [-1, 0]])
        assert run("simulate", "--config", cfg, "--seed", "2") == 0
        from_config = capsys.readouterr().out
        assert '"constellation": "custom"' in from_config
        assert run("simulate", "--config", cfg, "--seed", "2", "--constellation", "[[1,0],[-1,0]]") == 0
        assert capsys.readouterr().out == from_config

    def test_flag_zero_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 3, "N": 3, "d": [2, 2, 2], "trials": 20, "seed": 5}))
        assert run("simulate", "--config", str(cfg), "--seed", "0", "--noise-grid", "0.1") == 0
        assert json.loads(capsys.readouterr().out.split("\nnoise_var")[0])["seed"] == 0
        assert run("simulate", "--config", str(cfg), "--trials", "0") == 1

    @pytest.mark.parametrize("points", [[1, 2], [[1, 0], [2]], [["a", "b"]], 5])
    def test_malformed_config_constellation_usage_error(self, tmp_path, points, capsys):
        assert run("simulate", "--config", self.write_config(tmp_path, points)) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'{"K": 3,', b"[1, 2]", b"\xff\xfe{}"])
    def test_config_not_a_json_object_usage_error(self, tmp_path, content, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert run("simulate", "--config", str(cfg)) == 1
        assert "usage error: --config" in capsys.readouterr().err

    def test_nonfinite_constellation_exits_1(self, tmp_path, capsys):
        args = ("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "5")
        assert run(*args, "--constellation", "[[1e999,0],[-1e999,0]]") == 1
        assert "finite" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"constellation": [[1e999, 0], [-1e999, 0]]}')
        assert run(*args, "--config", str(cfg)) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [("--noise-grid", "0.1", "--constellation", "[[1e308,0],[-1e308,0]]")],
        ids=["constellation"],
    )
    def test_float_overflow_exits_1(self, extra, capsys):
        # finite inputs whose sums or powers overflow: an error, never inf or NaN figures
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "2000", *extra) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "overflow" in err

    @pytest.mark.parametrize("var", ["1e-310", "1e308"], ids=["tiny", "huge"])
    def test_extreme_noise_variance_prints_its_db_figure(self, var, capsys):
        # the SNR in dB is -10 log10(var) - 10 log10(max noise gain), finite at
        # both ends of the float range, where 1 / (var * gain) or var * gain
        # overflows; every noise gain is >= 1, so each figure lies below
        # -10 log10(var)
        argv = ("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "2000", "--seed", "0", "--noise-grid", var)
        assert run(*argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        (level,) = json.loads(out.split("\nnoise_var,")[0])["levels"]
        top = -10 * math.log10(float(var))
        assert all(top - 40 < float(s) <= top for s in level["per_user_snr_db"]), level["per_user_snr_db"]
        if var == "1e308":  # noise swamps the signal: every decision is a guess among the 4 points
            assert all(abs(ser - 0.75) < 0.05 for ser in level["per_user_ser"])
        else:
            assert level["per_user_ser"] == [0.0, 0.0, 0.0]

    def test_integer_constellation_past_float_range_usage_error(self, capsys):
        huge = "1" + "0" * 400
        argv = ("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "5")
        assert run(*argv, "--constellation", f"[[{huge},0],[-{huge},0]]") == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: --constellation")

    def test_subnormal_constellation_still_runs(self, capsys):
        args = ("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "2000", "--noise-grid", "0.1")
        assert run(*args, "--constellation", "[[1e-320,0],[-1e-320,0]]") == 0
        doc = json.loads(capsys.readouterr().out.split("\nnoise_var,")[0])
        assert doc["relay_map_success_exact"] == [3, 4]


class TestVariety:
    def test_default_probe(self, capsys):
        assert run("variety", "--seed", "4", "--samples", "30", "--lines", "10") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["plucker_residual_max"] < 1e-9
        assert doc["det_triple_agreement"] == 1.0
        assert doc["line_probe"]["all_lines_hit"] is True

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_usage_error(self, samples, capsys):
        assert run("variety", "--samples", samples, "--seed", "0") == 1
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape, flag",
        [(["-N", "0"], "-N"), (["-N", "-2"], "-N"), (["-N", "3", "-d", "0"], "-d"),
         (["-N", "3", "-d", "-1"], "-d"), (["-N", "3", "-d", "5"], "-d")],
    )
    def test_bad_shape_usage_error(self, shape, flag, capsys):
        assert run("variety", *shape, "--seed", "0") == 1
        assert f"usage error: {flag} " in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["0", "-3"])
    def test_nonpositive_lines_usage_error(self, lines, capsys):
        assert run("variety", "--lines", lines, "--seed", "0") == 1
        assert "usage error: --lines" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--samples", "--lines"])
    def test_count_past_numpy_array_size_exits_1(self, flag, capsys):
        # rejected before any draw; never test a huge count numpy can represent, it would run it
        assert run("variety", flag, "1" + "0" * 30, "--seed", "0") == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}=1" + "0" * 30)

    def test_oversized_relation_table_exits_1(self, capsys):
        assert run("variety", "-N", "13", "-d", "4", "--samples", "1", "--seed", "0") == 1
        assert "wedge-relation terms" in capsys.readouterr().err

    def test_oversized_minor_stack_exits_1(self, capsys):
        # d = N has no relations; its N^2 minor entries a sample are past 2^20, refused before any draw
        assert run("variety", "-N", "2000", "-d", "2000", "--seed", "0") == 1
        assert "minor entries per sample" in capsys.readouterr().err

    def test_det_probe_unsupported_shape(self):
        assert run("variety", "-N", "4", "-d", "2", "--det-probe") == 2

    def test_plucker_only_other_shape(self, capsys):
        assert run("variety", "-N", "5", "-d", "3", "--samples", "10", "--lines", "5", "--seed", "0") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["plucker_residual_max"] < 1e-9
        assert "det_triple_agreement" not in doc


class TestSeedHandling:
    def test_env_var_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("RELAY_ALIGN_SEED", "123")
        assert run("feasible", "-K", "3", "-N", "3", "-d", "2,2,2") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 123

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RELAY_ALIGN_SEED", "123")
        assert run("feasible", "-K", "3", "-N", "3", "-d", "2,2,2", "--seed", "5") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    @pytest.mark.parametrize(
        "argv", [["variety"], ["genericity", "-K", "3", "-N", "3", "-d", "2,2,2"], ["feasible", "-K", "3", "-N", "3", "-d", "2,2,2"]]
    )
    def test_negative_seed_usage_error(self, argv, capsys, monkeypatch):
        assert run(*argv, "--seed", "-1") == 1
        assert "usage error: the seed" in capsys.readouterr().err
        monkeypatch.setenv("RELAY_ALIGN_SEED", "-5")
        assert run(*argv) == 1

    def test_bad_env_var(self, monkeypatch):
        monkeypatch.setenv("RELAY_ALIGN_SEED", "abc")
        assert run("feasible", "-K", "3", "-N", "3", "-d", "2,2,2") == 1


class TestManyCallsInOneProcess:
    """main builds its parser once per process; every call still gives the stdout and exit code of a lone call."""

    FEASIBLE = ["feasible", "-K", "3", "-N", "3", "-d", "2,2,2"]

    def test_usage_error_then_valid_command(self, capsys):
        assert run("feasible", "-K", "3", "-N", "3") == 1
        out, err = capsys.readouterr()
        assert out == "" and "usage error" in err
        assert run(*self.FEASIBLE, "--seed", "0") == 0
        assert capsys.readouterr().out == (GOLDEN / "feasible-ok.out").read_text()

    def test_subcommands_in_turn(self, capsys):
        construct = ["construct", "-K", "4", "-N", "5", "-d", "5,3,1,1", "--seed", "0"]
        verify = ["verify", str(GOLDEN / "construct.out"), "--seed", "0"]
        for argv, name, rc in [(construct, "construct", 0), (verify, "verify", 0),
                               (["feasible", "-K", "3", "-N", "3", "-d", "2,2,1", "--seed", "0"], "feasible-sum", 2),
                               (construct, "construct", 0)]:
            assert run(*argv) == rc
            assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()

    def test_changed_seed_env_var(self, capsys, monkeypatch):
        for seed in ("3", "7"):
            monkeypatch.setenv("RELAY_ALIGN_SEED", seed)
            rc, out = run(*self.FEASIBLE), capsys.readouterr().out
            assert rc == 0 and json.loads(out)["seed"] == int(seed)
            assert (rc, out) == lone_call(self.FEASIBLE, seed_env=seed)


class TestOutOfMemory:
    # a shape too large for the machine ends in numpy's MemoryError subclass; it is
    # raised here by a stand-in, so the test does not hang on the machine's overcommit policy
    @pytest.mark.parametrize(
        "module, name, argv",
        [
            (feasibility, "construct_strategy", ["construct", "-K", "2", "-N", "4", "-d", "4,4", "--seed", "0"]),
            (relay_align.relaysim, "run_monte_carlo", ["simulate", "-K", "3", "-N", "3", "-d", "2,2,2",
                                                       "--trials", "10", "--seed", "0"]),
        ],
        ids=["construct", "simulate"],
    )
    def test_memory_error_exits_1_with_one_error_line(self, module, name, argv, capsys, monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000)")

        monkeypatch.setattr(module, name, exhaust)
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: Unable to allocate 149. GiB for an array with shape (100000, 100000)\n"

