import json

import numpy as np
import pytest

import urysohn as u
from urysohn.errors import ConfigError, DivergenceError


def small_study(**overrides):
    base = dict(problem_id="linear-green", r=1, n_sequence=(4, 8, 16), tol=1e-12)
    base.update(overrides)
    return u.StudyConfig(**base)


# --- order estimation ---------------------------------------------------------


def test_estimate_order_table_values():
    assert u.estimate_order(8.6e-3, 2.15e-3) == pytest.approx(2.00, abs=1e-12)
    assert u.estimate_order(2.98e-6, 1.87e-7) == pytest.approx(3.99, abs=5e-3)
    assert u.estimate_order(0.37, 0.37) == 0.0


def test_estimate_order_flags_degenerate_inputs():
    assert np.isnan(u.estimate_order(0.0, 1e-5))
    assert np.isnan(u.estimate_order(1e-5, 0.0))
    assert np.isnan(u.estimate_order(-1e-5, 1e-6))


# --- zeta scaling ---------------------------------------------------------------


def test_zeta_exact_h2_errors_stabilize_perfectly():
    pts = np.linspace(0.1, 0.9, 9)
    c = np.sin(np.pi * pts) + 2.0
    hs = [0.1, 0.05, 0.025]
    errors = [c * h ** 2 for h in hs]
    zetas, metrics = u.zeta_estimate(errors, hs, r=1)
    for z in zetas:
        np.testing.assert_allclose(z, c, atol=1e-13)
    assert metrics == pytest.approx([0.0, 0.0], abs=1e-12)


def test_zeta_next_order_term_sets_the_metric():
    pts = np.linspace(0.1, 0.9, 5)
    c, d = 2.0, 5.0
    hs = [0.1, 0.05]
    errors = [c * h ** 2 + d * h ** 4 for h in hs]
    zetas, metrics = u.zeta_estimate([e * np.ones_like(pts) for e in errors], hs, r=1)
    expected = (0.75 * d * hs[0] ** 2) / (c + d * hs[1] ** 2)
    assert metrics[0] == pytest.approx(expected, rel=1e-12)


def test_zeta_requires_two_levels():
    with pytest.raises(ValueError):
        u.zeta_estimate([np.ones(3)], [0.1], 1)
    with pytest.raises(ValueError):
        u.zeta_estimate([np.ones(3), np.ones(3)], [0.1], 1)


@pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
def test_zeta_requires_positive_finite_widths(h):
    with pytest.raises(ValueError, match="mesh width must be positive and finite"):
        u.zeta_estimate([np.ones(3), np.ones(3)], [0.1, h], 1)


# --- config validation ------------------------------------------------------------


def test_config_rejects_short_or_non_doubling_sequences():
    with pytest.raises(ConfigError):
        small_study(n_sequence=())
    with pytest.raises(ConfigError):
        small_study(n_sequence=(8,))
    with pytest.raises(ConfigError):
        small_study(n_sequence=(8, 12))
    with pytest.raises(ConfigError):
        small_study(n_sequence=(8, 16, 24))


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        small_study(r=0)
    with pytest.raises(ConfigError):
        small_study(discrete_mode="fast")
    with pytest.raises(ConfigError):
        small_study(discrete_mode="paper-discrete", r=2)
    with pytest.raises(ConfigError):
        small_study(output_format="xlsx")
    with pytest.raises(ConfigError):
        small_study(method="bfgs")
    with pytest.raises(ConfigError):
        small_study(tol=-1.0)
    with pytest.raises(ConfigError):
        small_study(tol=float("inf"))


@pytest.mark.parametrize("field, value", [
    ("r", "2"), ("r", True), ("r", 1.5),
    ("max_iter", "50"), ("max_iter", False),
    ("quad_points", 10.0), ("quad_points", "10"),
    ("n_sequence", ("8", "16")), ("n_sequence", (8.0, 16.0)), ("n_sequence", "8,16"),
    ("n_sequence", 8), ("n_sequence", (None, None)),
    ("tol", "1e-12"), ("tol", True), ("tol", None),
])
def test_config_rejects_wrongly_typed_fields(field, value):
    with pytest.raises(ConfigError):
        small_study(**{field: value})


def test_levels_are_capped_at_a_fixed_cell_count():
    """Every level a study solves, the 8x reference of a study without an
    exact solution too, has at most _MAX_CELLS cells; the cap itself is a
    valid level."""
    from urysohn.study import _MAX_CELLS, _level_options
    assert _MAX_CELLS == 2 ** 20
    assert _level_options(_MAX_CELLS, 1, "full").quad_points == 10
    with pytest.raises(ConfigError, match="at most 1048576 cells"):
        _level_options(_MAX_CELLS + 1, 1, "full")
    with pytest.raises(ConfigError, match="at most"):
        small_study(n_sequence=(_MAX_CELLS, 2 * _MAX_CELLS))
    config = small_study(n_sequence=(_MAX_CELLS // 8, _MAX_CELLS // 4))
    config._solve_options()
    with pytest.raises(ConfigError, match=f"got {2 * _MAX_CELLS}"):
        config._solve_options(reference=True)


def test_dense_arrays_are_capped_at_a_fixed_entry_count():
    """A Newton level's (n r)^2 matrix and the midpoint scheme's n x n grid
    hold at most _MAX_DENSE entries; the full scheme's Picard levels have no
    quadratic array."""
    from urysohn.study import _MAX_CELLS, _MAX_DENSE, _level_options
    assert _MAX_DENSE == 2 ** 24
    for n, r in ((4096, 1), (2048, 2), (640, 2)):  # 640: a printed-RHS r = 2 reference
        assert _level_options(n, r, "full", method="newton").method == "newton"
    _level_options(4096, 1, "paper-discrete")
    assert _level_options(_MAX_CELLS, 1, "full").method == "picard"
    for n, r, mode, method in ((4097, 1, "full", "newton"), (2049, 2, "full", "newton"),
                               (4097, 1, "paper-discrete", "picard")):
        with pytest.raises(ConfigError, match=f"more than {_MAX_DENSE}"):
            _level_options(n, r, mode, method=method)


def test_arrays_on_the_projection_nodes_are_capped_at_a_fixed_entry_count():
    """A level's (S, 2p, r) basis table at the sub-panel nodes and (S, 32)
    sub-panels of a manufactured right-hand side, S = n max(r, 10), hold at
    most _MAX_NODE_ENTRIES, those of a 2**20-cell level at r = 1 and p = 10;
    the cap passes and one past it fails, in n, r and p."""
    from urysohn.study import _MAX_CELLS, _MAX_NODE_ENTRIES, _level_options
    assert _MAX_NODE_ENTRIES == _MAX_CELLS * 10 * 32
    for n, r, p in ((_MAX_CELLS, 1, 10), (_MAX_CELLS, 1, 16), (_MAX_CELLS // 2, 1, 32),
                    (838_860, 2, 10), (4096, 64, 10)):
        assert _level_options(n, r, "full", quad_points=p).quad_points == p
    for n, r, p in ((_MAX_CELLS, 1, 17), (_MAX_CELLS, 2, 10), (838_861, 2, 10), (4097, 64, 10),
                    (16384, 64, 10), (_MAX_CELLS, 1, 64)):
        with pytest.raises(ConfigError, match=f"more than {_MAX_NODE_ENTRIES}"):
            _level_options(n, r, "full", quad_points=p)


def test_config_keeps_numpy_integers_as_plain_ints():
    config = small_study(max_iter=np.int64(50), quad_points=np.int64(10))
    assert type(config.max_iter) is int and type(config.quad_points) is int
    config = small_study(r=np.int64(1), n_sequence=np.array([4, 8]))
    assert type(config.r) is int and all(type(n) is int for n in config.n_sequence)
    opts = u.SolveOptions(max_iter=np.int64(5), quad_points=np.int64(7))
    assert type(opts.max_iter) is int and type(opts.quad_points) is int
    json.dumps(config.to_dict())


def test_config_from_dict_matches_field_names():
    data = {
        "problem_id": "zero-kernel",
        "params": {},
        "r": 1,
        "n_sequence": [4, 8],
        "method": "picard",
        "tol": 1e-10,
        "max_iter": 50,
        "quad_points": 8,
        "rhs_mode": "manufactured",
        "discrete_mode": "full",
        "output_path": None,
        "output_format": "json",
    }
    cfg = u.StudyConfig.from_dict(data)
    assert cfg.to_dict() == {**data, "n_sequence": [4, 8]}
    with pytest.raises(ConfigError):
        u.StudyConfig.from_dict({**data, "mystery_knob": 3})
    with pytest.raises(ConfigError):
        u.StudyConfig.from_dict({"r": 1})


# --- running studies -----------------------------------------------------------------


def test_zero_kernel_study_has_zero_errors_and_undefined_orders():
    report = u.run_study(small_study(problem_id="zero-kernel", n_sequence=(4, 8)))
    np.testing.assert_allclose(report.e1[4], 0.0, atol=1e-15)
    np.testing.assert_allclose(report.e1[8], 0.0, atol=1e-15)
    assert np.all(np.isnan(report.alpha[4]))


def test_study_points_are_interior_coarse_partition_points():
    report = u.run_study(small_study(n_sequence=(4, 8)))
    np.testing.assert_allclose(report.points, [0.25, 0.5, 0.75], atol=0)


def test_study_orders_for_linear_problem():
    report = u.run_study(small_study())
    # piecewise constants: order 2 at partition points, 4 after extrapolation
    assert np.all(np.abs(report.alpha[4] - 2.0) < 0.35)
    assert np.all(np.abs(report.alpha[8] - 2.0) < 0.2)
    assert np.all(report.beta[4] > 3.3)
    assert report.zeta_stabilization[8] < 0.1
    assert report.meta["iterations"][16] >= 1
    assert not report.reference_based


def test_study_aborts_with_level_on_divergence():
    cfg = small_study(params={"scale": 30.0}, n_sequence=(4, 8), max_iter=10)
    with pytest.raises(DivergenceError) as info:
        u.run_study(cfg)
    assert info.value.level == 4


def test_reference_based_fallback_flags_report():
    cfg = u.StudyConfig(problem_id="paper-hammerstein", rhs_mode="paper",
                        n_sequence=(4, 8), tol=1e-10)
    report = u.run_study(cfg)
    assert report.reference_based
    assert report.meta["reference_based"]
    # errors against the 8x reference are finite and nonzero
    assert np.all(report.e1[4] > 0)


@pytest.mark.parametrize("discrete_mode", ["full", "paper-discrete"])
def test_each_level_and_the_reference_start_from_the_level_below(monkeypatch, discrete_mode):
    starts, name = [], ("solve_paper_discrete" if discrete_mode == "paper-discrete"
                        else "solve_galerkin")
    solve = getattr(u.study, name)

    def recorded(prob, mesh, *args, start=None):
        starts.append((mesh.n, None if start is None else start.mesh.n))
        return solve(prob, mesh, *args, start=start)

    monkeypatch.setattr(u.study, name, recorded)
    u.run_study(u.StudyConfig(problem_id="paper-hammerstein", rhs_mode="paper",
                              n_sequence=(4, 8), discrete_mode=discrete_mode))
    assert starts == [(4, None), (8, 4), (64, 8)]


@pytest.mark.parametrize("method", ["picard", "newton"])
def test_r3_study_levels_take_fewer_iterations_than_the_first(method):
    """The r = 3 acceptance studies: every level after the first, started
    from the one below, takes fewer iterations than the first."""
    report = u.run_study(u.StudyConfig(problem_id="paper-hammerstein", r=3,
                                       n_sequence=(5, 10, 20, 40), tol=1e-15, method=method))
    first, *rest = report.meta["iterations"].values()
    assert len(rest) == 3 and max(rest) < first


# --- emission -------------------------------------------------------------------------


def test_csv_schema_column_order(tmp_path):
    report = u.run_study(small_study())
    path = tmp_path / "report.csv"
    text = u.emit_report(report, "csv", str(path))
    header = text.splitlines()[0].split(",")
    assert header == [
        "t_i",
        "E1@4", "E1@8", "E1@16",
        "alpha@(4:8)", "alpha@(8:16)",
        "E2@4", "E2@8",
        "beta@(4:8)",
        "zeta@4", "zeta@8", "zeta@16",
    ]
    assert len(text.splitlines()) == 1 + report.points.size
    assert path.read_text() == text


def test_header_only_file_for_empty_point_set(tmp_path):
    # a single-cell coarse mesh has no interior partition points
    report = u.run_study(small_study(problem_id="zero-kernel", n_sequence=(1, 2)))
    path = tmp_path / "empty.csv"
    text = u.emit_report(report, "csv", str(path))
    assert len(text.splitlines()) == 1


@pytest.mark.parametrize("overrides, key, expected", [
    ({"params": {"gamma": np.int64(3)}}, "gamma", 3),
    ({"params": {"gamma": np.float32(3.0)}}, "gamma", 3.0),
    ({"tol": np.float32(1e-10)}, "tol", float(np.float32(1e-10))),
], ids=["int64-param", "float32-param", "float32-tol"])
def test_json_report_writes_numpy_scalars_as_numbers(overrides, key, expected):
    config = u.StudyConfig("linear-green", n_sequence=(2, 4), **overrides)
    echoed = json.loads(u.render_report(u.run_study(config), "json"))["config"]
    value = echoed["params"][key] if "params" in overrides else echoed[key]
    assert value == expected and type(value) is type(expected)


def test_json_roundtrip_is_bit_exact(tmp_path):
    report = u.run_study(small_study())
    path = tmp_path / "report.json"
    u.emit_report(report, "json", str(path))
    payload = json.loads(path.read_text())
    for name, values in report.columns():
        reread = payload["data"][name]
        for a, b in zip(reread, values):
            assert (np.isnan(a) and np.isnan(b)) or a == float(b)
    assert payload["config"] == report.meta["config"]
    assert "wall" not in path.read_text()


def test_md_renders_one_row_per_point(tmp_path):
    report = u.run_study(small_study(n_sequence=(4, 8)))
    text = u.emit_report(report, "md", str(tmp_path / "report.md"))
    rows = [line for line in text.splitlines() if line.startswith("| 0.")]
    assert len(rows) == 3


def test_orders_recomputed_from_emitted_errors_match(tmp_path):
    report = u.run_study(small_study())
    path = tmp_path / "report.csv"
    u.emit_report(report, "csv", str(path))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = {name: np.array([float(row.split(",")[i]) for row in lines[1:]])
            for i, name in enumerate(header)}
    np.testing.assert_allclose(
        np.log2(cols["E1@4"] / cols["E1@8"]), cols["alpha@(4:8)"], atol=5e-4)
    np.testing.assert_allclose(
        np.log2(cols["E2@4"] / cols["E2@8"]), cols["beta@(4:8)"], atol=5e-4)


def test_identical_configs_emit_identical_bytes(tmp_path):
    """A params of None is the study of no parameters, and so are its bytes."""
    paths = []
    for tag, params in (("a", None), ("b", {})):
        report = u.run_study(small_study(n_sequence=(4, 8), params=params))
        path = tmp_path / f"report_{tag}.json"
        u.emit_report(report, "json", str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_emit_rejects_unknown_format(tmp_path):
    report = u.run_study(small_study(n_sequence=(4, 8)))
    with pytest.raises(ConfigError):
        u.emit_report(report, "parquet", str(tmp_path / "x"))
