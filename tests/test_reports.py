"""Every acceptance report depends on its config alone: the same bytes
through two --out paths and through stdout.  ``acceptance_reports.py
--check`` names each report whose hash differs from a record."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from acceptance_reports import CONFIGS, run, write_report

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, argv", CONFIGS, ids=[name for name, _ in CONFIGS])
def test_acceptance_report_depends_on_its_config_alone(tmp_path, name, argv):
    first = write_report(argv, str(tmp_path / name))
    (tmp_path / "again").mkdir()
    second = write_report(argv, str(tmp_path / "again" / f"other-{name}"))
    code, printed, _ = run(argv)
    assert code == 0
    assert first == second == printed.encode("utf-8")


def test_check_names_the_config_whose_hash_differs_from_the_record(tmp_path):
    """``--check`` against a record of the script's own output exits 0; once
    one hash has a digit changed it exits 1 and names that config alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def script(*args):
        return subprocess.run([sys.executable, str(ROOT / "tests" / "acceptance_reports.py"),
                               *args], env=env, capture_output=True, text=True, timeout=300)

    printed = script()
    assert printed.returncode == 0, printed.stderr
    lines = printed.stdout.splitlines()
    assert [line.split()[1] for line in lines] == [name for name, _ in CONFIGS]
    record = tmp_path / "record.txt"
    record.write_text(printed.stdout)
    assert script("--check", str(record)).returncode == 0
    value, name = lines[4].split()
    lines[4] = f"{'0' if value[0] != '0' else '1'}{value[1:]}  {name}"
    record.write_text("\n".join(lines) + "\n")
    checked = script("--check", str(record))
    assert checked.returncode == 1
    assert [line.split(":")[0] for line in checked.stdout.splitlines()] == [name]
