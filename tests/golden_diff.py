"""Show that the simulate and variety goldens of a git revision and of the working tree differ only in masked figures.

    python tests/golden_diff.py REV

Each tests/golden/simulate-*.out and variety*.out is masked at REV and in
the working tree: the entries of every per_user_ser list and every
relay_map_success_rate and determinant_abs_min of its JSON document, and
the ser and relay_map_success columns of its CSV table.  The masked texts
must be byte-identical, so the config, the SNR figures and every other byte
are unchanged.  The script prints, per file, how many masked values changed
and the largest change, and exits 1 if any other byte differs.
"""

import re
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
CSV_HEADER = "noise_var,user,ser,snr_db,relay_map_success"


def masked(text: str) -> tuple[str, list[str]]:
    """The text with its SER, relay and determinant figures replaced by '#', and those figures in order."""
    out, values = [], []
    in_ser = in_csv = False
    for line in text.split("\n"):
        if in_csv and line:
            fields = line.split(",")
            values += [fields[2], fields[4]]
            fields[2] = fields[4] = "#"
            line = ",".join(fields)
        elif in_ser and not line.strip().startswith("]"):
            head, value, tail = re.fullmatch(r"(\s*)([^,\s]+)(,?)", line).groups()
            values.append(value)
            line = f"{head}#{tail}"
        elif m := re.fullmatch(r'(\s*"(?:relay_map_success_rate|determinant_abs_min)": )([^,]+)(,?)', line):
            values.append(m[2])
            line = f"{m[1]}#{m[3]}"
        in_ser = line.endswith('"per_user_ser": [') or (in_ser and not line.strip().startswith("]"))
        in_csv = in_csv or line == CSV_HEADER
        out.append(line)
    return "\n".join(out), values


def main(rev: str) -> int:
    failed = False
    for path in sorted([*GOLDEN.glob("simulate-*.out"), *GOLDEN.glob("variety*.out")]):
        rel = path.relative_to(GOLDEN.parent.parent).as_posix()
        old = subprocess.run(["git", "show", f"{rev}:{rel}"], check=True, capture_output=True, text=True).stdout
        (old_text, old_values), (new_text, new_values) = masked(old), masked(path.read_text())
        changed = sum(a != b for a, b in zip(old_values, new_values))
        largest = max((abs(float(a) - float(b)) for a, b in zip(old_values, new_values)), default=0.0)
        same = old_text == new_text and len(old_values) == len(new_values)
        print(f"{path.name}: {changed} of {len(new_values)} masked values changed, by at most {largest:.1e}; "
              f"{'every other byte identical' if same else 'OTHER BYTES DIFFER'}")
        failed |= not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
