"""Golden CLI outputs: every README command, replayed in process, must print
exactly the stored stdout and return the stored exit code.

The files under ``tests/golden/`` are rewritten from the current code by

    PYTHONPATH=src python3 tests/test_cli_golden.py

which should only be done for a deliberate change of output.

``pipeline-run-qonsager-sl2-spin3half.stdout`` is not replayed here, because
a run takes several seconds; CI compares it, and it is rewritten by

    PYTHONPATH=src python3 -m qloopk.cli pipeline run qonsager-sl2-spin3half \
        > tests/golden/pipeline-run-qonsager-sl2-spin3half.stdout
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from qloopk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SL2_AB = ("--rep", "eval-sl2:1:a", "--rep", "eval-sl2:1:b")
FUND = ("--scenario", "qonsager-sl2-fundamental")

CASES = [
    ("gsat", "validate", "--type", "A", "--n", "2", "--X", "1,2",
     "--tau", "0,2,1"),
    ("rep", "build", "--rep", "eval-sl2:1:a"),
    ("rep", "check", *SL2_AB),
    ("rmatrix", "compute", *SL2_AB),
    ("rmatrix", "compute", *SL2_AB, "--vars", "a=2"),
    ("rmatrix", "verify-ybe", *SL2_AB, "--rep", "eval-sl2:1:c"),
    ("rmatrix", "verify-ybe", "--rep", "eval-sl2:2:a", "--rep", "eval-sl2:2:b",
     "--rep", "eval-sl2:2:c"),
    ("rmatrix", "verify-unitarity", *SL2_AB),
    ("rmatrix", "degeneration", *SL2_AB, "--at", "b=q^2*a,z=1"),
    ("kmatrix", "compute", *FUND),
    ("kmatrix", "compute", *FUND, "--vars", "s0=0,s1=0"),
    ("kmatrix", "verify-gre", *FUND),
    ("kmatrix", "verify-re", *FUND),
    ("kmatrix", "verify-unitarity", *FUND),
    ("kmatrix", "convert-grading", *FUND),
    ("irred", "check", "--rep", "eval-sl2:2:a", "--mode", "lowering"),
    ("irred", "check", *FUND, "--mode", "qsp"),
    ("irred", "check", *SL2_AB, "--mode", "tensor"),
    ("irred", "check", "--rep", "eval-sl2:2:a", "--rep", "eval-sl2:2:b",
     "--mode", "tensor"),
    ("irred", "check", "--rep", "eval-sl2:5:a", "--rep", "eval-sl2:5:b",
     "--mode", "tensor"),
    ("pipeline", "run", "qonsager-sl2-fundamental"),
    ("kmatrix", "compute", "--scenario", "qonsager-sl2-spin1"),
    ("--output", "latex", "rmatrix", "compute", *SL2_AB),
    ("--output", "text", "pipeline", "run", "qonsager-sl2-fundamental"),
]


def slug(argv) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-")


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", CASES, ids=slug)
def test_matches_golden(argv):
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out, err = run(argv)
    assert err == ""
    assert code == exits[slug(argv)]
    assert out == (GOLDEN / f"{slug(argv)}.stdout").read_text()


def capture():
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for argv in CASES:
        code, out, err = run(argv)
        if err:
            sys.exit(f"{' '.join(argv)}: unexpected stderr {err!r}")
        exits[slug(argv)] = code
        (GOLDEN / f"{slug(argv)}.stdout").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(exits, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    capture()
