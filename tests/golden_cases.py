"""The CLI golden contract: every golden file under tests/data and the command
that prints it.

A case is (name, argv, formats). For each format, `idop *argv --format <format>`
must exit 0, write nothing to stderr and print tests/data/<name>.golden.<suffix>
byte for byte, where the suffix is txt for text and json for json.

tests/test_cli.py runs every case in-process through idop.cli.main. Run as a
script, this file runs every case through the `idop` command on PATH, so it
checks an installed package:

    python tests/golden_cases.py

It prints the name and format of each failing case and exits 1 if any fails.
It imports nothing from idop.
"""

import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
SUFFIX = {"text": "txt", "json": "json"}
BOTH = ("text", "json")

CASES = [
    ("norm_rank1", ("norm", "I^2*d^2 + 3/2*d*H - I"), ("json",)),
    ("norm_rank2", ("norm", "--n", "2", "e(0,0)_1*I_2 - 2*H_1 + d_1*d_2"), ("json",)),
    # dense powers, the output of the product's head loop at ranks 1-3
    ("norm_dense_rank1", ("norm", "(3*x-2*d)^11"), BOTH),
    ("norm_dense_rank1_eunits", ("norm", "(x-2*I+3*d+1/2*e(1,0))^6"), BOTH),
    ("norm_dense_rank2", ("norm", "--n", "2", "(2*x_1+d_2+3*I_1*e(0,0)_2)^5"), BOTH),
    ("norm_dense_rank3", ("norm", "--n", "3", "(x_1*d_2-2*I_3+H_1)^4"), BOTH),
    # the polynomial parser and printer
    ("apply_rank1", ("apply", "3/2*I^2 - d + 2*e(2,1) + H", "x^3 - 2*x + 1/3"), BOTH),
    (
        "apply_rank2",
        ("apply", "--n", "2", "d_1*I_2 - 1/2*H_1*x_2 + e(0,1)_1", "(x1+x2)^3 - 1/2"),
        BOTH,
    ),
    (
        "apply_rank3",
        ("apply", "--n", "3", "x_1*d_2*I_3 - 3*e(1,0)_3 + H_2^2", "x1*x2^2*x3 + 5/7*x3 - x1^2"),
        BOTH,
    ),
    ("apply_zero", ("apply", "d^4 + e(0,5)", "x^3 + 2/3*x"), BOTH),
    # every command that builds parsed generators
    ("split_rank1", ("split", "1/2*x^2 - 3*e(1,0) + 2/3*d"), BOTH),
    ("split_dense_rank1", ("split", "(x - 2/3*I + e(0,1))^3"), BOTH),
    ("split_zero", ("split", "I*d - 1 + e(0,0)"), BOTH),
    ("socle_rank1", ("socle", "I^2 - 5/2*e(0,3) + x"), BOTH),
    ("socle_rank2", ("socle", "--n", "2", "I_1*I_2 - 1/2*e(1,0)_1*d_2 + x_2"), BOTH),
    ("quot_rank1", ("quot", "3/2*I^2*H - e(2,0) + x*d"), BOTH),
    ("quot_rank2", ("quot", "--n", "2", "H_1*I_2 - 2/3*e(0,0)_1 + d_1*x_2"), BOTH),
    ("quot_zero", ("quot", "e(3,1) - 1/2*e(0,0)"), BOTH),
    ("fdeg_rank1", ("fdeg", "2/5*e(3,1) + x"), BOTH),
    ("fdeg_no_eunits", ("fdeg", "d^3 - 1/2*x"), BOTH),
    ("matrix_rank1", ("matrix", "--size", "4", "x - 1/2*d + 3*e(1,2)"), BOTH),
    ("matrix_rank2", ("matrix", "--n", "2", "--size", "3", "I_1*d_2 - 2/3*e(0,1)_2"), BOTH),
    ("matrix_zero", ("matrix", "--size", "3", "I*d - 1 + e(0,0)"), BOTH),
    ("matrix_rank3", ("matrix", "--n", "3", "--size", "3", "x_1*d_2 - 2*I_3 + e(1,0)_2*H_3"), BOTH),
    ("dims_one_i", ("dims", "--gen", "1,I", "--max", "16"), BOTH),
    ("dims_e00", ("dims", "--gen", "e(0,0)", "--max", "16"), BOTH),
    # most of its stored rows have several entries: the reducer's general path
    ("dims_mixed", ("dims", "--gen", "x*d - 2*e(1,1),I^2*H", "--max", "12"), BOTH),
    ("verify_all", ("verify", "--suite", "all"), BOTH),
    ("verify_samples10_seed3", ("verify", "--suite", "all", "--samples", "10", "--seed", "3"), BOTH),
]


def golden_file(name: str, fmt: str) -> Path:
    return DATA / f"{name}.golden.{SUFFIX[fmt]}"


def main() -> int:
    failed = 0
    for name, argv, formats in CASES:
        for fmt in formats:
            proc = subprocess.run(["idop", *argv, "--format", fmt], capture_output=True)
            if proc.returncode or proc.stderr or proc.stdout != golden_file(name, fmt).read_bytes():
                print(f"FAIL {name} ({fmt})")
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
