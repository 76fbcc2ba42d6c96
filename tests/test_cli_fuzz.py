"""Fuzzed flags for both CLI commands: every run ends in one of the
documented exit codes (0 success, 2 divergence, 3 configuration error) and
no exception escapes ``main``."""

import contextlib
import io
import json
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from urysohn.cli import main
from urysohn.problems import PROBLEM_IDS


def _text(values):
    return values.map(str)


# (flag, good values, bad values).  A run gives each optional flag or leaves
# it out, and at most one flag gets a bad value, so that each bad value
# reaches its own check and most runs reach a solve.
_FLAGS = [
    ("--r", _text(st.integers(1, 64)),
     st.one_of(_text(st.integers(-3, 0)), _text(st.integers(65, 80)),
               st.sampled_from(["nan", "x", "2.5"]))),
    ("--tol", st.sampled_from(["1e-12", "1e-6", "1e-3"]),
     st.sampled_from(["0", "-1", "nan", "inf", "x"])),
    ("--max-iter", _text(st.integers(1, 4)), _text(st.integers(-1, 0))),
    ("--quad-points", _text(st.integers(2, 64)),
     st.one_of(_text(st.integers(-1, 1)), _text(st.integers(65, 70)), st.just("x"))),
    ("--mode", st.sampled_from(["full", "paper-discrete"]), st.just("fast")),
    ("--method", st.sampled_from(["picard", "newton"]), st.just("bfgs")),
    ("--format", st.sampled_from(["csv", "json", "md"]), st.just("pdf")),
]
# Always given; a bad value of None leaves the flag out.
_PROBLEM = ("--problem", st.sampled_from(PROBLEM_IDS),
            st.sampled_from([None, "no-such-problem"]))
_REQUIRED = {
    "solve": [_PROBLEM, ("--n", _text(st.integers(1, 4)),
                         st.one_of(_text(st.integers(-3, 0)),
                                   st.sampled_from([None, "x", "2.5", str(2 ** 62),
                                                    str(10 ** 30)])))],
    # small meshes: the default (20, 40, 80) is slow at large r
    "study": [_PROBLEM, ("--n", st.integers(1, 2).map(lambda n0: f"{n0},{2 * n0}"),
                         st.sampled_from(["-2,-4", "0,0", "4", "4,9", "x",
                                          f"{2 ** 62},{2 ** 63}",
                                          f"{10 ** 30},{2 * 10 ** 30}"]))],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["solve", "study"]))
    required = _REQUIRED[command]
    flags = required + _FLAGS
    bad = -1 if draw(st.booleans()) else draw(st.integers(0, len(flags) - 1))
    argv = [command]
    for i, (flag, good, bad_values) in enumerate(flags):
        if i == bad:
            value = draw(bad_values)
        # hypothesis favours the first element, so an optional flag is mostly given
        elif i < len(required) or draw(st.sampled_from([True, False])):
            value = draw(good)
        else:
            value = None
        if value is not None:
            argv += [flag, value]
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=_argv())
def test_cli_exit_code_is_documented(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    assert code in (0, 2, 3), argv


def _magnitude():
    """m 10^k from 1e-320 to 1e320, log-uniform over the exponent; past the
    largest double it reads as inf."""
    return st.builds(lambda m, k: float(f"{m}e{k}"), st.floats(1.0, 9.99), st.integers(-320, 320))


# the integers are beyond the float range: JSON writes them digit by digit
_BAD = st.sampled_from([0.0, -0.0, "x", None, True, [1.0], {"a": 1}, 10 ** 400, -10 ** 400])
_VALUE = st.one_of(_magnitude(), _magnitude().map(lambda v: -v), _BAD)


@st.composite
def _config(draw):
    params = {key: draw(_VALUE) for key in ("gamma", "scale") if draw(st.booleans())}
    n0 = draw(st.integers(1, 2))
    return {"problem_id": draw(st.sampled_from(PROBLEM_IDS)), "params": params,
            "rhs_mode": draw(st.sampled_from(["manufactured", "paper"])),
            "method": draw(st.sampled_from(["picard", "newton"])),
            "r": draw(st.integers(1, 3)), "n_sequence": [n0, 2 * n0]}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(config=_config())
def test_config_params_exit_code_is_documented_without_warnings(tmp_path_factory, config):
    """Problem parameters through ``--config``: gamma and scale from 1e-320
    to 1e320 in magnitude, either sign, zero, integers beyond the float
    range and not numbers.  Every run
    ends in 0, 2 or 3, with no exception and no warning."""
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config))
    sink = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        warnings.simplefilter("error")
        code = main(["study", "--config", str(path)])
    assert code in (0, 2, 3), (config, sink.getvalue()[-300:])
