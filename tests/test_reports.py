"""Every acceptance report depends on its config alone: the same bytes
through two --out paths and through stdout."""

import pytest

from acceptance_reports import CONFIGS, run, write_report


@pytest.mark.parametrize("name, argv", CONFIGS, ids=[name for name, _ in CONFIGS])
def test_acceptance_report_depends_on_its_config_alone(tmp_path, name, argv):
    first = write_report(argv, str(tmp_path / name))
    (tmp_path / "again").mkdir()
    second = write_report(argv, str(tmp_path / "again" / f"other-{name}"))
    code, printed, _ = run(argv)
    assert code == 0
    assert first == second == printed.encode("utf-8")
