"""Golden CLI outputs: a fixed command set whose stdout must stay byte-identical.

The fixtures in tests/golden/ hold the exact stdout of each command. After an
intended output change, rebuild them with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why the bytes differ.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from relay_align.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
WIDE_D = ",".join(["4"] * 16)

# name -> (exit code, argv); every case passes --seed so the environment cannot leak in
CASES = {
    "simulate-qpsk-seed0": (0, ["simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "2000", "--seed", "0"]),
    "simulate-qpsk-seed1": (0, ["simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "2000", "--seed", "1"]),
    # user 3 decodes through a badly conditioned receive map: its worst stream's SNR is -12.2 dB at noise 0.01,
    # which explains its SER of 0.60 there, where users 1 and 2 (13.7 and 15.8 dB) make no errors
    "simulate-qpsk-seed57": (0, ["simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "20000", "--seed", "57"]),
    "simulate-wide-seed0": (0, ["simulate", "-K", "16", "-N", "32", "-d", WIDE_D, "--trials", "50", "--seed", "0"]),
    # unequal d_k: receivers of 3 and 2 streams share the stacked decode
    "simulate-ragged-seed7": (0, ["simulate", "-K", "4", "-N", "5", "-d", "3,3,2,2", "--trials", "5000", "--seed", "7"]),
    "simulate-bpsk-seed2": (
        0,
        ["simulate", "-K", "3", "-N", "3", "-d", "2,2,2", "--constellation", "bpsk", "--trials", "2000", "--seed", "2"],
    ),
    "feasible-ok": (0, ["feasible", "-K", "3", "-N", "3", "-d", "2,2,2", "--seed", "0"]),
    "feasible-sum": (2, ["feasible", "-K", "3", "-N", "3", "-d", "2,2,1", "--seed", "0"]),
    "feasible-bound": (2, ["feasible", "-K", "2", "-N", "3", "-d", "4,2", "--seed", "0"]),
    "construct": (0, ["construct", "-K", "4", "-N", "5", "-d", "5,3,1,1", "--seed", "0"]),
    "verify": (0, ["verify", str(GOLDEN / "construct.out"), "--seed", "0"]),
    # a Haar-random strategy with two zero-width pairs, from the pairwise table construct-dij.json
    "construct-dij": (
        0,
        ["construct", "-K", "4", "-N", "5", "-d", "2,3,3,2", "--dij", str(GOLDEN / "construct-dij.json"), "--seed", "0"],
    ),
    "verify-dij": (0, ["verify", str(GOLDEN / "construct-dij.out"), "--seed", "0"]),
    # declares d = 2,2,2 while its pair bases give users 3, 2 and 1 streams
    "verify-mismatch": (2, ["verify", str(GOLDEN / "verify-mismatch.json"), "--seed", "0"]),
    # three pairs of users share the lines e1, e2 and (e1 + e2)/sqrt(2) of C^3: each V_i splits
    # into its pair intersections (ii), but those three lines are no basis (iii)
    "verify-global": (2, ["verify", str(GOLDEN / "verify-global.json"), "--seed", "0"]),
    "genericity": (0, ["genericity", "-K", "3", "-N", "3", "-d", "2,2,2", "--trials", "50", "--seed", "1"]),
    # the benchmark's rate-0 shape: every draw reaches the basis test and fails it
    "genericity-rate0": (0, ["genericity", "-K", "4", "-N", "4", "-d", "2,2,2,2", "--trials", "50", "--seed", "1"]),
    # pairs of widths 2 and 1: V_0 & V_1 is a plane, the other two intersections are lines
    "genericity-mixed": (0, ["genericity", "-K", "3", "-N", "4", "-d", "3,3,2", "--trials", "50", "--seed", "1"]),
    "variety": (0, ["variety", "--samples", "20", "--lines", "10", "--seed", "4"]),
    "variety-n6d3": (0, ["variety", "-N", "6", "-d", "3", "--samples", "20", "--lines", "5", "--seed", "4"]),
}


def run_case(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    rc_expected, argv = CASES[name]
    rc, out = run_case(argv)
    assert rc == rc_expected
    assert out == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_file_holds_stdout(name, tmp_path):
    # -o PREFIX prints nothing and writes what stdout prints: to PREFIX, or PREFIX.json then PREFIX.csv for simulate.
    # The file is compared with the same command's stdout, which test_golden_output compares with the golden, so the
    # check also holds under the BLAS kernels whose last bits three goldens do not keep
    rc_expected, argv = CASES[name]
    prefix = tmp_path / "out"
    written = [tmp_path / "out.json", tmp_path / "out.csv"] if name.startswith("simulate-") else [prefix]
    assert run_case([*argv, "-o", str(prefix)]) == (rc_expected, b"")
    assert sorted(tmp_path.iterdir()) == sorted(written)  # no temp file left behind
    assert b"".join(f.read_bytes() for f in written) == run_case(argv)[1]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (rc_expected, argv) in CASES.items():
        rc, out = run_case(argv)
        if rc != rc_expected:
            sys.exit(f"{name}: exit {rc}, expected {rc_expected}")
        (GOLDEN / f"{name}.out").write_bytes(out)


if __name__ == "__main__":
    regenerate()
