import json
import os

import numpy as np
import pytest

from relay_align.cli import main
from relay_align.errors import InvalidInput
from relay_align.feasibility import construct_strategy, StrategySpec, verify_strategy
from relay_align.serialization import (
    dump_strategy,
    load_strategy,
    strategy_from_dict,
    strategy_to_dict,
)


def run(*argv):
    return main(list(argv))


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


class TestConstructAndVerify:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "strategy.json"
        assert run("construct", "-K", "3", "-N", "3", "-d", "2,2,2", "-o", str(out)) == 0
        assert run("verify", str(out)) == 0

    def test_two_user_whole_space(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("construct", "-K", "2", "-N", "4", "-d", "4,4", "-o", str(out)) == 0
        strategy = load_strategy(str(out))
        assert strategy.subspaces[0].d == 4
        a, b = (v.basis for v in strategy.subspaces)
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
        dump_strategy(s, str(path))
        back = load_strategy(str(path))
        for p, b in s.pair_bases.items():
            assert np.array_equal(back.pair_bases[p], b)

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


class TestSimulate:
    def test_zero_trials_usage_error(self):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "0") == 1

    def test_infeasible_exits_2(self):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,1", "--trials", "10") == 2

    @pytest.mark.parametrize("grid", ["nan", "inf", "1,nan"])
    def test_nonfinite_noise_level_usage_error(self, grid, capsys):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "5", "--noise-grid", grid) == 1
        assert "usage error: --noise-grid" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["[1]", "[oops", "[[1,0,2]]"])
    def test_malformed_constellation_usage_error(self, points, capsys):
        assert run("simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "5", "--constellation", points) == 1
        assert "usage error: --constellation" in capsys.readouterr().err

    def test_outputs_and_determinism(self, tmp_path):
        args = (
            "simulate", "-K", "3", "-N", "3", "-d", "2,2,2",
            "--trials", "200", "--noise-grid", "0.1,0.001", "--seed", "9",
        )
        assert run(*args, "-o", str(tmp_path / "a")) == 0
        assert run(*args, "-o", str(tmp_path / "b")) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
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

    def test_oversized_relation_table_exits_1(self, capsys):
        assert run("variety", "-N", "13", "-d", "4", "--samples", "1", "--seed", "0") == 1
        assert "wedge-relation terms" in capsys.readouterr().err

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
