"""The acceptance reports: the CLI configs whose report bytes every change
to the library compares, and a script that prints their sha256 prefixes.

    PYTHONPATH=src python tests/acceptance_reports.py [DIR]
    PYTHONPATH=src python tests/acceptance_reports.py --check RECORD

runs each config through ``urysohn.cli.main`` in process, writes its report
with ``--out`` into DIR (a temporary directory when omitted) and prints one
line per report: the first 16 hex digits of its sha256, then its name.  A
change that moves report bytes on purpose shows where by this list.  With
``--check`` it compares the hashes against RECORD, a file of such lines
(``tests/acceptance_hashes.txt`` is the committed one), names each config
whose hash differs from it or is missing from it, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

from urysohn.cli import main

HAMMERSTEIN_STUDY = ["study", "--problem", "paper-hammerstein"]
LINEAR_SOLVE = ["solve", "--problem", "linear-green", "--n", "16", "--r", "2"]
R3_STUDY = [*HAMMERSTEIN_STUDY, "--r", "3", "--n", "5,10,20,40", "--tol", "1e-15",
            "--format", "json"]

# (name, argv without --out); a report file is named after its config.
CONFIGS = (
    ("study-r1.csv", [*HAMMERSTEIN_STUDY, "--r", "1", "--n", "10,20,40"]),
    ("study-r1.json", [*HAMMERSTEIN_STUDY, "--r", "1", "--n", "10,20,40", "--format", "json"]),
    ("study-r1.md", [*HAMMERSTEIN_STUDY, "--r", "1", "--n", "10,20,40", "--format", "md"]),
    ("study-r2-newton.csv", [*HAMMERSTEIN_STUDY, "--r", "2", "--n", "8,16", "--method", "newton"]),
    ("study-paper-rhs.csv", [*HAMMERSTEIN_STUDY, "--n", "10,20", "--rhs", "paper"]),
    ("study-midpoint.csv", [*HAMMERSTEIN_STUDY, "--mode", "paper-discrete", "--n", "10,20,40"]),
    ("study-midpoint-newton.csv", [*HAMMERSTEIN_STUDY, "--mode", "paper-discrete",
                                   "--n", "10,20", "--method", "newton"]),
    ("study-linear-r3.csv", ["study", "--problem", "linear-green", "--r", "3", "--n", "4,8,16"]),
    ("solve-linear.csv", LINEAR_SOLVE),
    ("solve-linear.json", [*LINEAR_SOLVE, "--format", "json"]),
    ("solve-linear.md", [*LINEAR_SOLVE, "--format", "md"]),
    ("solve-midpoint-newton.csv", ["solve", "--problem", "paper-hammerstein", "--n", "16",
                                   "--mode", "paper-discrete", "--method", "newton"]),
    ("study-r3-picard.json", R3_STUDY),
    ("study-r3-newton.json", [*R3_STUDY, "--method", "newton"]),
)


def run(argv) -> tuple:
    """``main(argv)`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_report(argv, path: str) -> bytes:
    """The bytes the config writes to path; a failing config raises."""
    code, _, err = run([*argv, "--out", path])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.strip()}")
    with open(path, "rb") as handle:
        return handle.read()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def hashes(directory: str) -> dict:
    """{name: hash} of every config, its report written into directory."""
    return {name: digest(write_report(argv, os.path.join(directory, name)))
            for name, argv in CONFIGS}


def mismatches(got: dict, record_path: str) -> list:
    """One line per config whose hash differs from the record or is missing from it."""
    with open(record_path, "r", encoding="utf-8") as handle:
        record = {name: value for value, name in (line.split() for line in handle if line.strip())}
    return [f"{name}: {value}, but the record has {record[name]}" if name in record
            else f"{name}: {value}, missing from the record"
            for name, value in got.items() if record.get(name) != value]


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print or check the acceptance report hashes.")
    parser.add_argument("dir", nargs="?", help="where the reports go (a temporary directory)")
    parser.add_argument("--check", metavar="RECORD", help="compare the hashes against RECORD")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        got = hashes(args.dir or tmp)
    if args.check is None:
        for name, value in got.items():
            print(f"{value}  {name}")
        return 0
    failed = mismatches(got, args.check)
    print("\n".join(failed) or f"all {len(got)} acceptance hashes match {args.check}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main())
