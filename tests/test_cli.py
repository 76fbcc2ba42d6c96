import json
import re
import warnings

import pytest

from urysohn.cli import main


def test_study_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["study", "--problem", "zero-kernel", "--r", "1",
                 "--n", "4,8", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header.startswith("t_i,E1@4,E1@8")
    assert "alpha@(4:8)" in header


def test_study_without_out_prints_report(capsys):
    code = main(["study", "--problem", "zero-kernel", "--n", "4,8", "--format", "md"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "| t_i |" in captured


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "problem_id": "zero-kernel",
        "n_sequence": [4, 8],
        "output_format": "json",
        "output_path": str(tmp_path / "ignored.json"),
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "actual.json"
    code = main(["study", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "ignored.json").exists()
    payload = json.loads(out.read_text())
    assert payload["config"]["problem_id"] == "zero-kernel"
    assert payload["config"]["n_sequence"] == [4, 8]


def test_config_error_exit_code(capsys):
    assert main(["study", "--problem", "no-such-problem", "--n", "4,8"]) == 3
    assert main(["study", "--problem", "zero-kernel", "--n", "4,9"]) == 3
    assert main(["study", "--problem", "zero-kernel", "--n", "4,8", "--format", "pdf"]) == 3
    assert main(["study"]) == 3  # no problem_id anywhere


def test_bad_config_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["study", "--config", str(path)]) == 3
    path.write_text(json.dumps({"problem_id": "zero-kernel", "mystery": 1}))
    assert main(["study", "--config", str(path)]) == 3
    assert main(["study", "--config", str(tmp_path / "missing.json")]) == 3


@pytest.mark.parametrize("override", [{"r": "2"}, {"params": {"gamma": 0}},
                                      {"params": {"gamma": 705}}, {"params": {"gamma": 703.5}},
                                      {"params": {"gamma": 703.9}}])
def test_wrongly_typed_or_invalid_config_exits_3_without_traceback(tmp_path, capsys, override):
    cfg = {"problem_id": "paper-hammerstein", "n_sequence": [4, 8], **override}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["study", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("rhs_mode", ["manufactured", "paper"])
@pytest.mark.parametrize("gamma", [1e-160, 1e-200])
def test_gamma_whose_green_scale_underflows_exits_3_without_warnings(tmp_path, capsys, gamma,
                                                                     rhs_mode):
    """gamma sinh(gamma) subnormal (1e-320) or zero: a config error, before
    any numpy warning."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"problem_id": "paper-hammerstein", "params": {"gamma": gamma},
                                "n_sequence": [4, 8], "rhs_mode": rhs_mode}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["study", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "too small: gamma sinh(gamma) underflows" in err
    assert "Traceback" not in err


def test_smallest_normal_gamma_scale_still_solves(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"problem_id": "paper-hammerstein", "params": {"gamma": 1e-150},
                                "n_sequence": [4, 8]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["study", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 0


@pytest.mark.parametrize("method", ["picard", "newton"])
def test_tiny_gamma_printed_rhs_diverges_with_one_message_and_no_warning(tmp_path, capsys,
                                                                          method):
    """gamma = 1e-150 passes the scale check, but the printed right-hand side
    (about 2/gamma) makes psi overflow in the first iteration: exit 2 with
    one message, and no numpy warning even when warnings are errors."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"problem_id": "paper-hammerstein", "params": {"gamma": 1e-150},
                                "rhs_mode": "paper", "r": 1, "n_sequence": [4, 8],
                                "method": method}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["study", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite update" in err
    assert "Traceback" not in err


def test_divergence_exit_code(tmp_path, capsys):
    cfg = {
        "problem_id": "linear-green",
        "params": {"scale": 30.0},
        "n_sequence": [4, 8],
        "max_iter": 10,
    }
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(cfg))
    assert main(["study", "--config", str(path)]) == 2
    assert "n=4" in capsys.readouterr().err


def test_stagnation_exits_2_long_before_max_iter(capsys):
    assert main(["solve", "--problem", "paper-hammerstein", "--n", "1",
                 "--mode", "paper-discrete"]) == 2
    err = capsys.readouterr().err
    assert "stagnated" in err
    assert int(re.search(r"iteration (\d+)", err).group(1)) < 50


def test_solve_dumps_samples(tmp_path):
    out = tmp_path / "samples.csv"
    code = main(["solve", "--problem", "linear-green", "--n", "4", "--r", "2",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_s,exact,error"
    assert len(lines) == 6  # header + n + 1 partition points


def test_solve_json_format(tmp_path):
    out = tmp_path / "samples.json"
    assert main(["solve", "--problem", "zero-kernel", "--n", "3",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"t", "x_s", "exact", "error"}
    assert len(payload["t"]) == 4


def test_solve_paper_discrete_mode(tmp_path):
    out = tmp_path / "discrete.csv"
    assert main(["solve", "--problem", "paper-hammerstein", "--n", "8",
                 "--mode", "paper-discrete", "--out", str(out)]) == 0
    assert main(["solve", "--problem", "paper-hammerstein", "--n", "8", "--r", "2",
                 "--mode", "paper-discrete", "--out", str(out)]) == 3


def test_solve_requires_problem_and_n(capsys):
    assert main(["solve", "--n", "4"]) == 3
    assert main(["solve", "--problem", "zero-kernel"]) == 3


@pytest.mark.parametrize("argv", [
    ["study", "--problem", "zero-kernel", "--n", "4,8", "--quad-points", "100"],
    ["solve", "--problem", "zero-kernel", "--n", "4", "--quad-points", "100"],
    ["solve", "--problem", "zero-kernel", "--n", "-4"],
    ["solve", "--problem", "zero-kernel", "--n", "4", "--r", "0"],
    ["study", "--problem", "zero-kernel", "--n", "4,8", "--r", "70"],
    ["solve", "--problem", "zero-kernel", "--n", "4", "--r", "70"],
])
def test_out_of_range_level_exits_3_without_traceback(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
