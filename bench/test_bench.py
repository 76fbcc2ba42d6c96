"""Tests of the benchmark harness itself: a wrong answer is a failed op, not
a crashed run, and traced counts repeat exactly.

    python3 -m pytest bench -q
"""

import dataclasses
import itertools

import numpy as np
import pytest

import run

run.import_library()

import tracing  # noqa: E402
import urysohn.quadrature  # noqa: E402
from workloads import GAMMA_BAND, STRATA, WORKLOADS, OpContext, gamma_stream, urysohn_exact  # noqa: E402

NEWTON = WORKLOADS["newton-urysohn"]


@pytest.fixture()
def ctx(tmp_path):
    return OpContext(str(tmp_path))


def test_gamma_stream_repeats_per_seed_and_covers_every_stratum():
    first = list(itertools.islice(gamma_stream(7), 4 * STRATA))
    assert first == list(itertools.islice(gamma_stream(7), 4 * STRATA))
    assert first != list(itertools.islice(gamma_stream(8), 4 * STRATA))
    for block in range(4):
        drawn = first[block * STRATA:(block + 1) * STRATA]
        lo, hi = GAMMA_BAND
        strata = sorted(int((g - lo) / ((hi - lo) / STRATA)) for g in drawn)
        assert strata == list(range(STRATA))


def test_correct_op_passes_its_gate(ctx):
    record = run.run_op(NEWTON, 3.5, ctx)
    assert record["ok"], record
    assert record["iterations"] > 0


def test_perturbed_exact_solution_fails_the_gate_and_the_loop_goes_on(ctx):
    wrong = dataclasses.replace(NEWTON, exact=lambda s: urysohn_exact(s) + 1e-6)
    records = []
    run.closed_loop(lambda i: records.append(run.run_op(wrong, 3.5, ctx)), 0.0, 2)
    assert [r["ok"] for r in records] == [False, False]
    assert all(r["err"] > 5e-7 for r in records)


def test_divergence_is_a_failed_op_not_a_crash(ctx):
    record = run.run_op(dataclasses.replace(NEWTON, max_iter=3), 3.5, ctx)
    assert not record["ok"]
    assert record["error"].startswith("DivergenceError")


def test_failing_study_cli_is_a_failed_op(ctx):
    bad_levels = dataclasses.replace(WORKLOADS["study-paper-rhs"], n_sequence=(10, 30))
    record = run.run_op(bad_levels, 3.5, ctx)
    assert not record["ok"]
    assert record["exit_code"] == 3


def traced_counts(workload, ctx):
    tracer = tracing.Tracer()
    ctx.tracer = tracer
    tracer.install()
    try:
        workload.op(3.5, ctx)
    finally:
        tracer.uninstall()
    return {name: (entry["calls"], entry["work"])
            for name, entry in tracing.aggregate(tracer.spans, {0}).items()}


def test_traced_counts_repeat_exactly(ctx):
    small = dataclasses.replace(NEWTON, n=6)
    first = traced_counts(small, ctx)
    assert first == traced_counts(small, ctx)
    assert first["solver.solve_galerkin"][0] == 1
    assert first["problems.kernel"][1] > 0
    assert first["piecewise.eval_on_cells"][1] > 0


def test_tracer_restores_wrapped_attributes():
    originals = (urysohn.quadrature.split_panels, np.linalg.cond)
    tracer = tracing.Tracer()
    tracer.install()
    assert urysohn.quadrature.split_panels is not originals[0]
    assert np.linalg.cond is not originals[1]
    tracer.uninstall()
    assert (urysohn.quadrature.split_panels, np.linalg.cond) == originals


def test_missing_wrap_target_is_absent_not_an_error(monkeypatch):
    monkeypatch.delattr(urysohn.quadrature, "split_panels")
    tracer = tracing.Tracer()
    assert "quadrature.split_panels" not in tracer.layers
    assert "solver.solve_galerkin" in tracer.layers


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(30)]
    value, percentile = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail(times[:12]) == (5.5, 50.0)
