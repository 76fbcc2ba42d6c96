import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import urysohn as u
import urysohn.study
from urysohn.cli import main
from urysohn.errors import SingularLinearizationError

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("override", [{"r": "2"}, {"r": 1.0}, {"n_sequence": ["4", "8"]},
                                      {"n_sequence": [None, None]}, {"params": {"gamma": 0}},
                                      {"params": {"gamma": 705}}, {"params": {"gamma": 703.5}},
                                      {"params": {"gamma": 703.9}}])
def test_wrongly_typed_or_invalid_config_exits_3_without_traceback(tmp_path, capsys, override):
    cfg = {"problem_id": "paper-hammerstein", "n_sequence": [4, 8], **override}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["study", "--config", str(path)]) == 3
    assert one_config_error(capsys.readouterr().err)


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


def singular_scale() -> float:
    """1/lambda, lambda the largest eigenvalue of linear-green's Newton matrix
    J at scale 1 on 4 cells, r = 1.  J is linear in the scale and does not
    depend on x, so at scale 1/lambda I - J is singular on that level."""
    mesh = u.make_mesh(4)
    prob = u.get_problem("linear-green", {"scale": 1.0})
    jac = u.assemble_linearized(prob, u.project(prob.f, mesh, 1), mesh, 1, u.gauss_rule(10))
    return 1.0 / float(np.max(np.linalg.eigvals(jac).real))


def test_singular_newton_matrix_exits_2_and_names_the_level(tmp_path, capsys):
    cfg = {"problem_id": "linear-green", "params": {"scale": singular_scale()},
           "n_sequence": [4, 8], "method": "newton"}
    with pytest.raises(SingularLinearizationError) as info:
        u.run_study(u.StudyConfig(**cfg))
    assert info.value.level == 4
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(cfg))
    assert main(["study", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failed at level n=4: linearized system is numerically singular")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_stagnation_exits_2_long_before_max_iter(capsys):
    assert main(["solve", "--problem", "paper-hammerstein", "--n", "1",
                 "--mode", "paper-discrete"]) == 2
    err = capsys.readouterr().err
    assert "stagnated" in err
    assert int(re.search(r"iteration (\d+)", err).group(1)) < 50


def test_stagnation_message_shows_a_rate_that_is_not_rounded_to_zero(capsys):
    assert main(["study", "--problem", "linear-green", "--n", "2,4", "--tol", "1e-300"]) == 2
    err = capsys.readouterr().err
    assert "stagnated" in err
    assert float(re.search(r"iterations \(([^)]*)\)", err).group(1)) > 0.0


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
    ["study", "--problem", "paper-hammerstein", "--n", "4,8", "--tol", "inf"],
    ["solve", "--problem", "zero-kernel", "--n", "4", "--tol", "inf"],
    ["study", "--problem", "zero-kernel", "--n", ""],
])
def test_out_of_range_level_exits_3_without_traceback(capsys, argv):
    assert main(argv) == 3
    assert one_config_error(capsys.readouterr().err)


def no_solve(*args, **kwargs):
    raise AssertionError("a solve ran")


def one_config_error(err: str) -> bool:
    return err.count("\n") == 1 and err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["study", "solve"])
@pytest.mark.parametrize("out", ["{tmp}", "{tmp}/no-such-dir/x.csv", "{tmp}/file/x.csv"])
def test_unwritable_report_path_exits_3_before_any_solve(tmp_path, capsys, monkeypatch,
                                                         command, out):
    """A directory, or a file in a directory that does not exist (or is a
    file): exit 3 with one line, before the first solve."""
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(urysohn.study, "solve_galerkin", no_solve)
    n = ["--n", "2,4"] if command == "study" else ["--n", "2"]
    assert main([command, "--problem", "zero-kernel", *n, "--out", out.format(tmp=tmp_path)]) == 3
    assert one_config_error(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "zero-kernel", "--n", str(2 ** 62)],
    ["solve", "--problem", "zero-kernel", "--n", str(10 ** 30)],
    ["study", "--problem", "zero-kernel", "--n", f"{2 ** 20},{2 ** 21}"],
    # only the 8x reference level of a printed-RHS study is too large
    ["study", "--problem", "paper-hammerstein", "--rhs", "paper", "--n", f"{2 ** 17},{2 ** 18}"],
])
def test_mesh_too_large_to_allocate_exits_3_before_any_solve(capsys, monkeypatch, argv):
    monkeypatch.setattr(urysohn.study, "solve_galerkin", no_solve)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert one_config_error(err) and "at most 1048576 cells" in err


@pytest.mark.parametrize("argv", [
    ["study", "--problem", "paper-hammerstein", "--method", "newton", "--n", "8192,16384"],
    ["study", "--problem", "paper-hammerstein", "--mode", "paper-discrete",
     "--n", "16384,32768"],
    ["solve", "--problem", "paper-hammerstein", "--method", "newton", "--n", "2048", "--r", "3"],
    # only the 8x reference level of a printed-RHS Newton study is too large
    ["study", "--problem", "paper-hammerstein", "--rhs", "paper", "--method", "newton",
     "--n", "1024,2048"],
])
def test_dense_array_past_the_cap_exits_3_before_any_solve(capsys, monkeypatch, argv):
    monkeypatch.setattr(urysohn.study, "solve_galerkin", no_solve)
    monkeypatch.setattr(urysohn.study, "solve_paper_discrete", no_solve)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert one_config_error(err) and "more than 16777216" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "paper-hammerstein", "--n", "16384", "--r", "64"],
    ["solve", "--problem", "paper-hammerstein", "--n", str(2 ** 20), "--quad-points", "64"],
])
def test_node_array_past_the_cap_exits_3_before_any_solve(capsys, monkeypatch, argv):
    monkeypatch.setattr(urysohn.study, "solve_galerkin", no_solve)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert one_config_error(err) and "more than 335544320" in err


def test_bad_mesh_list_and_non_object_config_exit_3_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(urysohn.study, "solve_galerkin", no_solve)
    assert main(["study", "--problem", "zero-kernel", "--n", "4,x"]) == 3
    err = capsys.readouterr().err
    assert one_config_error(err) and "bad mesh list '4,x'" in err
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"problem_id": "zero-kernel", "n_sequence": [4, 8]}]))
    assert main(["study", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert one_config_error(err) and "must hold a JSON object" in err


def _digits(k: int) -> str:
    """The JSON integer 10^k, written out (str() of an int of more than
    4300 digits raises)."""
    return "1" + "0" * k


@pytest.mark.parametrize("text", [
    '{"problem_id": "zero-kernel", "n_sequence": [%d, %d]}' % (10 ** 30, 2 * 10 ** 30),
    '{"problem_id": "paper-hammerstein", "params": {"gamma": %s}, "n_sequence": [2, 4]}'
    % _digits(400),
    '{"problem_id": "linear-green", "params": {"scale": -%s}, "n_sequence": [2, 4]}'
    % _digits(400),
    '{"problem_id": "paper-hammerstein", "params": {"gamma": %s}, "n_sequence": [2, 4]}'
    % _digits(4400),
], ids=["n_sequence-1e30", "gamma-1e400", "scale-minus-1e400", "gamma-1e4400"])
def test_config_integers_beyond_range_exit_3_before_any_solve(tmp_path, capsys, monkeypatch,
                                                              text):
    """JSON integers too large for a mesh, for a float, or for int() itself."""
    monkeypatch.setattr(urysohn.study, "solve_galerkin", no_solve)
    path = tmp_path / "study.json"
    path.write_text(text)
    assert main(["study", "--config", str(path)]) == 3
    assert one_config_error(capsys.readouterr().err)


@pytest.mark.parametrize("command", ["study", "solve"])
def test_failed_report_write_exits_3(tmp_path, capsys, monkeypatch, command):
    """An OSError while the report is written: exit 3 with one line."""
    def full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(urysohn.study, "open", full, raising=False)
    n = ["--n", "2,4"] if command == "study" else ["--n", "2"]
    out = tmp_path / "x.csv"
    assert main([command, "--problem", "zero-kernel", *n, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert one_config_error(err) and f"cannot write {out}" in err


def test_non_string_output_path_in_config_exits_3_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(urysohn.study, "solve_galerkin", no_solve)
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"problem_id": "zero-kernel", "n_sequence": [2, 4],
                                "output_path": ["x"]}))
    assert main(["study", "--config", str(path)]) == 3
    assert one_config_error(capsys.readouterr().err)


@pytest.mark.parametrize("output_path", [5, 1, True])
def test_file_descriptor_output_path_in_config_exits_3_before_any_solve(tmp_path, output_path):
    """An integer or a bool would open a file descriptor: run in a process
    of its own, whose descriptors those are."""
    path = tmp_path / "study.json"
    path.write_text(json.dumps({"problem_id": "zero-kernel", "n_sequence": [2, 4],
                                "output_path": output_path}))
    script = ("import sys, urysohn.study\n"
              "def no_solve(*args, **kwargs):\n"
              "    raise AssertionError('a solve ran')\n"
              "urysohn.study.solve_galerkin = no_solve\n"
              "from urysohn.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, "study", "--config", str(path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3 and done.stdout == ""
    assert one_config_error(done.stderr), done.stderr


# --- stdout carries the report and nothing else ----------------------------------


def strict(text: str):
    """json.loads that rejects NaN and the infinities, as RFC 8259 does."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
@pytest.mark.parametrize("command, argv", [
    ("study", ["--problem", "paper-hammerstein", "--n", "4,8"]),
    ("solve", ["--problem", "linear-green", "--n", "4", "--r", "2"]),
])
def test_stdout_holds_the_report_and_notes_go_to_stderr(tmp_path, capsys, command, argv, fmt):
    """Without --out stdout is the bytes --out writes; with --out it is
    empty.  The notes and the alpha summary are on stderr."""
    assert main([command, *argv, "--format", fmt]) == 0
    printed = capsys.readouterr()
    out = tmp_path / f"report.{fmt}"
    assert main([command, *argv, "--format", fmt, "--out", str(out)]) == 0
    written = capsys.readouterr()
    want = out.read_text()
    assert printed.out == want
    assert written.out == ""
    assert f"to {out}" in written.err and "wrote" not in printed.err
    summary = "levels n=[4, 8]; alpha in ["
    assert (summary in printed.err and summary in written.err) == (command == "study")


def test_json_reports_write_non_finite_numbers_as_null(tmp_path, capsys):
    """A zero-kernel study has NaN orders, written as null, which a strict
    parser reads.  No config field can be non-finite: a config tol of 1e999
    is refused."""
    assert main(["study", "--problem", "zero-kernel", "--n", "2,4", "--format", "json"]) == 0
    payload = strict(capsys.readouterr().out)
    assert payload["data"]["alpha@(2:4)"] == [None]
    assert payload["zeta_stabilization"] == {"2": None}
    path = tmp_path / "study.json"
    path.write_text('{"problem_id": "zero-kernel", "n_sequence": [2, 4], "tol": 1e999}')
    assert main(["study", "--config", str(path), "--format", "json"]) == 3
    assert one_config_error(capsys.readouterr().err)


def test_closed_stdout_exits_3_with_one_line(tmp_path):
    """A stdout whose reader closed before the run: the write always fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "urysohn", "study", "--problem",
                               "zero-kernel", "--n", "2,4"], cwd=tmp_path, env=env,
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 3
    assert one_config_error(done.stderr) and "cannot write" in done.stderr, done.stderr


@pytest.mark.parametrize("command, stdout", [
    ("solve", "closed"), ("study", "closed"), ("solve", "a pipe with no reader"),
])
def test_python_m_urysohn_without_a_stdout_exits_3_with_one_line(tmp_path, command, stdout):
    """``python -m urysohn`` whose stdout is closed when it starts (``>&-``:
    no sys.stdout, refused before any solve) or is a pipe whose reader is
    gone (the write fails): exit 3, one config error line, no traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    n = {"solve": "2", "study": "2,4"}[command]
    argv = [sys.executable, "-m", "urysohn", command, "--problem", "zero-kernel", "--n", n]
    if stdout == "closed":
        argv = ["sh", "-c", 'exec "$0" "$@" >&-', *argv]
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(argv, cwd=tmp_path, env=env, stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 3, done.stderr
    assert one_config_error(done.stderr), done.stderr
    assert "cannot write the report to stdout" in done.stderr


@pytest.mark.parametrize("stderr", ["closed", "unwritable"])
def test_closed_stderr_keeps_the_exit_code_and_stdout_empty(tmp_path, stderr):
    """``python -m urysohn`` whose stderr is closed when it starts (``2>&-``:
    no sys.stderr) or is a descriptor open for reading only (every write
    fails): the notes are dropped, never written to stdout, and each run
    keeps its exit code; a solve with --out still writes its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = [(["solve", "--problem", "zero-kernel", "--n", "2", "--out", "s.csv"], 0),
            (["study", "--problem", "zero-kernel", "--n", "4,9"], 3),
            (["study", "--problem", "paper-hammerstein", "--n", "4,8", "--tol", "1e-30",
              "--max-iter", "3"], 2)]
    with open(os.devnull, "rb") as read_only:
        for args, code in runs:
            argv = [sys.executable, "-m", "urysohn", *args]
            if stderr == "closed":
                argv = ["sh", "-c", 'exec "$0" "$@" 2>&-', *argv]
            done = subprocess.run(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                                  stderr=read_only if stderr == "unwritable" else None,
                                  text=True, timeout=120)
            assert (done.returncode, done.stdout) == (code, ""), args
    assert (tmp_path / "s.csv").read_text().startswith("t,x_s")
