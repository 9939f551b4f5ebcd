"""Driver plumbing: config precedence, serialized outputs, exit codes.

Everything here runs on toy grids and short horizons. The point is the
plumbing contract (merge/env/flag precedence, report schemas, byte-stable
reruns), not solver accuracy; accuracy claims live with the solver tests.
"""

import csv
import json
import math
import os
import platform
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy
import scipy.sparse.linalg as spla

from contactflow import cli
from contactflow import diagnostics as diag
from contactflow import flow as flow_mod
from contactflow import geometry
from contactflow.params import ConstraintError, PhysicalParams

TINY = {
    "grid": {"nx": 16, "ny": 12},
    "time": {"dt": 0.02, "t_end": 0.4, "save_every": 2},
    "initial": {"eta_modes": [[1, 0.01]]},
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # keep runs hermetic even if the shell exports CONTACTFLOW_* vars
    for name in [n for n in os.environ if n.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(name)


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, cfg, out="out", argv=()):
    cfg = dict(cfg)
    outdir = tmp_path / out
    cfg["out"] = str(outdir)
    path = _write_config(tmp_path, cfg, name=out + ".json")
    rc = cli.main(["--config", path, *argv])
    return rc, outdir


def _report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


# ------------------------------------------------------------------
# config plumbing
# ------------------------------------------------------------------

def test_default_config_validates():
    cfg = cli.default_config()
    params = cli.validate_config(cfg)
    assert isinstance(params, PhysicalParams)
    assert params.mu == cfg["params"]["mu"]


def test_unknown_keys_rejected(tmp_path, capsys):
    path = _write_config(tmp_path, {"nope": 1})
    with pytest.raises(ConstraintError, match="unknown config key: nope"):
        cli.load_config(path, environ={})
    path = _write_config(tmp_path, {"params": {"zap": 1}}, name="n.json")
    with pytest.raises(ConstraintError, match="params.zap"):
        cli.load_config(path, environ={})
    # removed keys, still present in older meta.json files
    for i, old in enumerate([{"initial": {"consistent_heat": True}},
                             {"svg": False}, {"recenter": True}]):
        path = _write_config(tmp_path, old, name="old%d.json" % i)
        assert cli.main(["--config", path, "--validate-only"]) == 2
    err = capsys.readouterr().err
    for name in ("initial.consistent_heat", "svg", "recenter"):
        assert "unknown config key: " + name in err


def test_scalar_override_for_table_rejected(tmp_path):
    path = _write_config(tmp_path, {"params": 3})
    with pytest.raises(ConstraintError, match="must be a table"):
        cli.load_config(path, environ={})


def test_env_overrides_parse_json_with_string_fallback():
    env = {
        "CONTACTFLOW_PARAMS__MU": "0.5",      # json number
        "CONTACTFLOW_CORNER__QS": "[1.5]",    # json list
        "CONTACTFLOW_OUT": "runs/elsewhere",  # not json, kept as string
        "UNRELATED": "1",
    }
    cfg = cli.load_config(environ=env)
    assert cfg["params"]["mu"] == 0.5
    assert isinstance(cfg["params"]["mu"], float)
    assert cfg["corner"]["qs"] == [1.5]
    assert cfg["out"] == "runs/elsewhere"
    # untouched keys keep their defaults
    assert cfg["params"]["k"] == cli.default_config()["params"]["k"]
    with pytest.raises(ConstraintError, match="unknown config key"):
        cli.load_config(environ={"CONTACTFLOW_NOPE": "1"})


def test_precedence_file_env_flags(tmp_path):
    path = _write_config(tmp_path, {"out": "from_file",
                                    "params": {"mu": 0.9}})
    env = {"CONTACTFLOW_OUT": "from_env"}
    cfg = cli.load_config(path, environ=env, overrides={"mode": "heat"})
    assert cfg["out"] == "from_env"    # env beats file
    assert cfg["params"]["mu"] == 0.9  # file beats defaults
    assert cfg["mode"] == "heat"
    cfg = cli.load_config(path, environ=env, overrides={"out": "from_flag"})
    assert cfg["out"] == "from_flag"   # explicit flags beat env


BAD_CONFIGS = [
    (("mode",), "warp"),
    (("grid", "nx"), 4),
    (("grid", "ny"), 7),
    (("time", "dt"), 0.0),
    (("time", "t_end"), -1.0),
    (("time", "warmup"), -0.5),
    (("eps",), -0.1),
    (("corner", "omegas"), [3.5]),
    (("corner", "omegas"), [0.0]),
    (("mean_height",), 2.5),
    (("mean_height",), 0.0),
    (("params", "mu"), -1.0),
    # non-finite numbers slip past every ordered comparison
    (("time", "dt"), math.nan),
    (("time", "dt"), math.inf),
    (("time", "warmup"), math.nan),
    (("time", "save_every"), math.nan),
    (("params", "beta"), math.nan),
    (("params", "kappa"), math.inf),
    (("eps",), math.nan),
    (("w3",), math.nan),
    (("initial", "theta_amp"), math.nan),
    (("initial", "eta_modes"), [[1, math.nan]]),
    # every value must have its default's type; a bool is no number
    (("grid", "nx"), 16.5),
    (("time", "save_every"), True),
    (("time", "save_every"), 2.0),
    (("time", "dt"), True),
    (("initial", "theta_mode"), "x"),
    (("initial", "eta_modes"), [[1.5, 0.05]]),
    (("initial", "eta_modes"), [[1, 0.05, 2]]),
    (("corner", "n"), 40.0),
    (("corner", "count"), "4"),
    (("corner", "omegas"), 1.5),
    (("params", "mu"), "0.35"),
    (("out",), 1),
    # configs that cannot give a meaningful run
    (("sweep", "eps_values"), [-0.5, 0.1]),
    (("time", "t_end"), 0.001),       # decay with zero steps
    (("corner", "count"), 0),
    (("corner", "qs"), [0.0]),           # no L^q norm below q = 1
    (("corner", "refine"), [1.0]),       # one grid size fits no rate
    (("corner", "refine"), [1.0, 1.01]),  # round(40 * 1.01) is 40 again
    (("corner", "refine"), [0.0, 1.0]),  # a wedge grid of size 0
    (("sweep", "eps_values"), []),
    (("sweep", "eps_values"), [0.1]),
    (("corner", "omegas"), []),          # a probe of no corner
    (("corner", "qs"), []),              # entries with no wedge probe
    (("time", "save_every"), 0),
    (("time", "save_every"), -3),
    # sigma(theta) = sigma1 - sigma2 theta is -1 at theta = 20
    (("initial", "theta_amp"), 20.0),
    # a decreasing contact response kappa z + w3 z^3
    (("w3",), -0.5),
    # sin(0) = 0: a zero temperature whatever theta_amp says
    (("initial", "theta_mode"), 0),
]


@pytest.mark.parametrize("path,value", BAD_CONFIGS)
def test_validate_config_rejects(path, value):
    cfg = cli.default_config()
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConstraintError):
        cli.validate_config(cfg)


def test_validate_config_takes_ints_for_floats():
    cfg = cli.default_config()
    cfg["time"].update(dt=1, t_end=6)
    cfg["params"]["mu"] = 1
    cfg["sweep"]["eps_values"] = [1, 0.5]
    cli.validate_config(cfg)


# ------------------------------------------------------------------
# output helpers
# ------------------------------------------------------------------

def test_fmt_strips_numpy_wrappers():
    assert cli._fmt(np.float64(0.1)) == repr(0.1)
    assert cli._fmt(0.1) == "0.1"
    assert cli._fmt(None) == ""
    assert cli._fmt(3) == "3"


def test_series_csv_layout_roundtrips(tmp_path):
    ncol = len(diag.SERIES_COLUMNS)
    rows = [[0.1 * i for i in range(ncol)],
            [np.float64(1.0 / 3.0)] + [0.0] * (ncol - 1)]
    path = tmp_path / "series.csv"
    cli.write_series_csv(str(path), rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(diag.SERIES_COLUMNS)
    assert len(got) == 3
    # repr serialization is lossless
    assert [float(c) for c in got[1]] == rows[0]
    assert float(got[2][0]) == 1.0 / 3.0


def test_write_json_sorted_and_numpy_safe(tmp_path):
    path = tmp_path / "r.json"
    cli.write_json(str(path), {"b": np.arange(3), "a": np.float64(0.25)})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 0.25, "b": [0, 1, 2]}


# ------------------------------------------------------------------
# initial data recipes
# ------------------------------------------------------------------

def test_initial_eta_sums_zero_mean_modes(grid):
    cfg = {"initial": {"eta_modes": [[1, 0.05], [2, 0.01]]}}
    eta = cli.initial_eta(cfg, grid)
    want = (0.05 * np.cos(math.pi * grid.xc / grid.ell)
            + 0.01 * np.cos(2 * math.pi * grid.xc / grid.ell))
    want -= want.mean()
    assert np.allclose(eta, want, atol=1e-15)
    assert abs(eta.mean()) < 1e-15


def test_initial_velocity_vanishes_on_walls(grid):
    assert cli.initial_velocity({"initial": {"stream_amp": 0.0}}, grid) \
        == (None, None)
    u1, u2 = cli.initial_velocity({"initial": {"stream_amp": 0.3}}, grid)
    assert u1.shape == (grid.nx + 1, grid.ny)
    assert u2.shape == (grid.nx, grid.ny + 1)
    assert np.all(u1[0, :] == 0.0) and np.all(u1[-1, :] == 0.0)
    assert np.all(u2[:, 0] == 0.0)
    assert np.max(np.abs(u1)) > 0.0
    # the exact derivatives of psi = 0.3 sin(pi (x + ell)/ell) sin(pi s)
    ell = grid.ell
    x, s = np.meshgrid(grid.xf, grid.sc, indexing="ij")
    want1 = 0.3 * np.pi * np.sin(np.pi * (x + ell) / ell) * np.cos(np.pi * s)
    x, s = np.meshgrid(grid.xc, grid.sf, indexing="ij")
    want2 = -0.3 * np.pi / ell * np.cos(np.pi * (x + ell) / ell) \
        * np.sin(np.pi * s)
    assert np.max(np.abs(u1 - want1)) <= 1e-14
    assert np.max(np.abs(u2 - want2)) <= 1e-14


def test_initial_theta_shape_and_walls(grid):
    cfg = {"initial": {"theta_amp": 0.0, "theta_mode": 1}}
    assert np.all(cli.initial_theta(cfg, grid) == 0.0)
    cfg = {"initial": {"theta_amp": 0.1, "theta_mode": 2}}
    th = cli.initial_theta(cfg, grid)
    assert th.shape == (grid.nx + 1, grid.ny + 1)
    assert np.max(np.abs(th[0, :])) < 1e-15   # x = -ell
    assert np.max(np.abs(th[-1, :])) < 1e-15  # x = +ell
    assert np.max(np.abs(th[:, 0])) < 1e-15   # bottom
    assert np.max(np.abs(th)) > 0.05


# ------------------------------------------------------------------
# exit codes
# ------------------------------------------------------------------

def test_validate_only_checks_without_writing(tmp_path, capsys):
    rc, outdir = _run(tmp_path, dict(TINY, mode="decay"),
                      argv=("--validate-only",))
    assert rc == 0
    assert "config ok" in capsys.readouterr().out
    assert not outdir.exists()


def test_bad_inputs_exit_two(tmp_path, capsys):
    assert cli.main(["--no-such-flag"]) == 2
    assert cli.main(["warp", "--validate-only"]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 2
    path = _write_config(tmp_path, {"nope": 1})
    assert cli.main(["--config", path]) == 2
    path = _write_config(tmp_path, [1, 2], name="list.json")
    assert cli.main(["--config", path]) == 2
    (tmp_path / "taken").write_text("")
    assert cli.main(["equilibrium", "--out", str(tmp_path / "taken")]) == 2
    path = _write_config(tmp_path, {"time": {"dt": math.nan}}, name="nan.json")
    assert cli.main(["--config", path, "--validate-only"]) == 2
    for i, cfg in enumerate([
            {"grid": {"nx": 16.5}},
            {"initial": {"theta_mode": "x"}},
            {"mode": "epsilon-sweep", "sweep": {"eps_values": [-0.5, 0.1]}},
            {"mode": "decay", "time": {"dt": 0.02, "t_end": 0.001}},
            {"mode": "heat", "time": {"dt": 0.02, "t_end": 0.01}},
            {"mode": "epsilon-sweep", "sweep": {"t_end": 0.001}},
            {"mode": "corner-probe", "corner": {"count": 0}},
            {"mode": "corner-probe", "corner": {"qs": [0.0]}},
            {"mode": "corner-probe", "corner": {"omegas": []}},
            {"mode": "corner-probe", "corner": {"qs": []}},
            {"mode": "corner-probe", "corner": {"refine": [1.0]}},
            {"mode": "corner-probe", "corner": {"refine": [1.0, 1.01]}},
            {"mode": "epsilon-sweep", "sweep": {"eps_values": []}},
            {"mode": "epsilon-sweep", "sweep": {"eps_values": [0.1]}}]):
        path = _write_config(tmp_path, cfg, name="bad%d.json" % i)
        assert cli.main(["--config", path, "--validate-only"]) == 2, cfg
    assert cli.main(["--help"]) == 0
    err = capsys.readouterr().err
    assert "config error" in err


def test_runtime_failure_exits_three(tmp_path, capsys):
    # equilibrium surface crests above the channel lid
    cfg = {"mode": "equilibrium", "mean_height": 2.0,
           "params": {"gamma_jump": 0.3}}
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 3
    assert "runtime failure" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()


# ------------------------------------------------------------------
# run modes: report schemas on toy runs
# ------------------------------------------------------------------

def test_equilibrium_mode_outputs(tmp_path):
    cfg = {"mode": "heat", "params": {"gamma_jump": 0.2}}
    rc, outdir = _run(tmp_path, cfg, argv=("equilibrium",))
    assert rc == 0
    rep = _report(outdir)
    assert rep["mode"] == "equilibrium"
    assert rep["runtime_s"] >= 0.0
    assert abs(rep["omega"] - (math.pi / 2 + math.asin(0.2))) < 1e-10
    assert rep["newton_residual"] < 1e-10
    assert set(rep["exponents"]) >= {"alpha", "eps_minus", "eps_plus",
                                     "q_minus", "q_plus", "q_max"}
    with open(outdir / "surface.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        assert set(reader.fieldnames) == {"x", "zeta0", "dzeta0"}
        assert len(list(reader)) > 10
    with open(outdir / "meta.json") as fh:
        meta = json.load(fh)
    assert meta["columns"] == list(diag.SERIES_COLUMNS)
    # the mode argument is echoed into the merged config
    assert meta["config"]["mode"] == "equilibrium"
    assert meta["versions"] == {"numpy": np.__version__,
                                "scipy": scipy.__version__,
                                "python": platform.python_version()}


def test_equilibrium_mode_solves_a_steep_meniscus(tmp_path):
    # a wall slope of 22: the closed-form rest state still exists
    cfg = {"mode": "equilibrium", "params": {"gamma_jump": 0.999}}
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0
    rep = _report(outdir)
    assert abs(rep["omega"] - (math.pi / 2 + math.asin(0.999))) <= 1e-12
    assert rep["newton_residual"] <= 1e-14
    with open(outdir / "surface.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 401
    assert abs(float(rows[0]["dzeta0"]) + 22.3439) < 5e-5


def test_heat_mode_recovers_spectral_decay_rate(tmp_path, monkeypatch):
    cfg = dict(TINY, mode="heat")
    cfg["initial"] = {"theta_amp": 0.1}
    problems, held = [], []
    build_problem, spectrum = cli.build_problem, cli.heat_mod.lowest_eigenvalues

    def built(*args):
        problems.append(build_problem(*args))
        return problems[-1]

    def lowest(*args, **kw):
        held.append(problems[0].heat_solver._precondition)
        return spectrum(*args, **kw)

    monkeypatch.setattr(cli, "build_problem", built)
    monkeypatch.setattr(cli.heat_mod, "lowest_eigenvalues", lowest)
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0
    rep = _report(outdir)
    assert rep["expected_rate_E_th_L2"] == 2.0 * rep["lowest_eigenvalue"]
    rel = abs(rep["fitted_rate_E_th_L2"] - rep["expected_rate_E_th_L2"]) \
        / rep["expected_rate_E_th_L2"]
    assert rel < 0.05
    assert rep["fit_r2"] > 0.999
    # 20 steps on frozen geometry: the first factor solves every later step
    # exactly, with no CG iteration
    solver = rep["heat_solver"]
    assert solver["factorizations"] == 1
    assert solver["reused_solves"] == 19
    assert solver["fallbacks"] == 0
    assert solver["max_cg_iterations"] == 0
    assert solver["factor_nnz"] > 0
    # the stepping factor is released before the spectrum factors B
    assert held == [None]


def test_decay_mode_report_and_series(tmp_path):
    rc, outdir = _run(tmp_path, dict(TINY, mode="decay"))
    assert rc == 0
    rep = _report(outdir)
    assert rep["max_div_residual"] < 1e-10
    assert rep["max_recenter_drift"] < 1e-12
    assert len(rep["contact_speeds_final"]) == 2
    fit = rep["decay"]
    assert set(fit) == {"lambda", "r2", "n_used", "C_bound", "E0"}
    assert fit["E0"] > 0.0 and fit["n_used"] >= 3
    with open(outdir / "series.csv", newline="") as fh:
        got = list(csv.reader(fh))
    # header + initial row + one save per save_every (t_end/dt = 20 steps)
    assert got[0] == list(diag.SERIES_COLUMNS)
    assert len(got) == 12
    idx = diag.SERIES_COLUMNS.index("E_total")
    e_first, e_last = float(got[1][idx]), float(got[-1][idx])
    assert 0.0 < e_last < e_first


def test_coupled_run_projects_a_raw_stream_velocity(tmp_path, monkeypatch):
    # stream_amp sends the sampled velocity through the initial projection,
    # whose t = 0 state must meet the constraints the stepper keeps
    starts = []
    construct = flow_mod.construct_flow_initial_data

    def recording(problem, *args):
        starts.append((problem, construct(problem, *args)))
        return starts[-1][1]

    monkeypatch.setattr(flow_mod, "construct_flow_initial_data", recording)
    cfg = dict(TINY, mode="coupled")
    cfg["initial"] = dict(TINY["initial"], stream_amp=0.05)
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0
    assert _report(outdir)["max_div_residual"] <= 1e-12
    (problem, state), = starts
    assert np.max(np.abs(state.u1)) > 0.0
    fields = geometry.build_geometry(problem.grid, state.eta, state.zdot)
    res = flow_mod.check_compatibility(problem, fields, state)
    assert res["div"] <= 1e-12 and res["wall_flux"] == 0.0
    assert res["kinematic"] <= 1e-13 and res["mean_eta"] <= 1e-15


def test_report_json_is_strict(tmp_path):
    # two saved rows leave the decay fit undefined (NaN)
    cfg = dict(TINY, mode="decay")
    cfg["time"] = dict(TINY["time"], t_end=0.04, save_every=5)
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0

    def reject(name):
        raise ValueError("non-standard JSON constant " + name)

    rep = json.loads((outdir / "report.json").read_text(),
                     parse_constant=reject)
    assert rep["decay"]["lambda"] is None
    path = tmp_path / "r.json"
    cli.write_json(str(path), {"a": np.array([1.0, np.nan]), "b": math.inf})
    assert json.loads(path.read_text(), parse_constant=reject) \
        == {"a": [1.0, None], "b": None}


def test_decay_report_counts_lagged_solves(tmp_path):
    cfg = dict(TINY, mode="decay")
    cfg["initial"] = dict(TINY["initial"], theta_amp=0.01)
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0
    rep = _report(outdir)
    for key in ("saddle_solver", "heat_solver"):
        # 20 steps: one factorization, every later step reuses it
        assert rep[key]["factorizations"] == 1
        assert rep[key]["reused_solves"] == 19
        assert rep[key]["fallbacks"] == 0
        assert 1 <= rep[key]["max_cg_iterations"] <= 20


@pytest.mark.parametrize("jump", [0.0, 0.3])
def test_decay_run_does_not_import_scipy_interpolate(tmp_path, jump):
    cfg = dict(TINY, mode="decay", params={"gamma_jump": jump},
               out=str(tmp_path / "out"),
               time=dict(TINY["time"], t_end=0.04))
    path = _write_config(tmp_path, cfg)
    code = ("import sys\n"
            "from contactflow import cli\n"
            "rc = cli.main(['--config', %r])\n"
            "print(rc, 'scipy.interpolate' in sys.modules)\n" % path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(cli.ENV_PREFIX)}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "False"]


@pytest.mark.parametrize("grid,overrides", [
    ((24, 16), {"params": {"kappa": 1e3}}),
    ((24, 16), {"params": {"kappa": 1e4}}),
    ((24, 16), {"params": {"kappa": 1e3, "gamma_jump": 0.3}}),
    ((24, 16), {"params": {"kappa": 1e4, "gamma_jump": 0.3}}),
    ((48, 32), {"eps": 10.0})],
    ids=["kappa1e3", "kappa1e4", "kappa1e3-curved", "kappa1e4-curved",
         "eps10"])
def test_stiff_contact_and_regularization_runs_complete(tmp_path, grid,
                                                        overrides):
    # at large kappa or eps, ||K|| ||psi|| dwarfs the load and a residual
    # bound relative to the load alone lies below rounding; the backward
    # error accepts the first step's solve with a fresh factor
    cfg = dict(TINY, mode="decay", grid={"nx": grid[0], "ny": grid[1]},
               time=dict(TINY["time"], t_end=0.2), **overrides)
    cfg["initial"] = dict(TINY["initial"], theta_amp=0.01)
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0
    rep = _report(outdir)
    assert rep["max_div_residual"] <= 1e-12
    assert rep["saddle_solver"]["factorizations"] \
        + rep["saddle_solver"]["reused_solves"] == 10


def test_decay_report_holds_factor_sizes(tmp_path):
    cfg = dict(TINY, mode="decay", time=dict(TINY["time"], t_end=0.06))
    cfg["initial"] = dict(TINY["initial"], theta_amp=0.01)
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0
    rep = _report(outdir)
    saddle, heat = rep["saddle_solver"]["factor_nnz"], \
        rep["heat_solver"]["factor_nnz"]
    # both factors are held; K and the heat system both have (nx - 1) ny
    # unknowns, and K's wider stencil gives its factor more entries
    assert isinstance(saddle, int) and isinstance(heat, int)
    assert saddle > heat > 0


def test_non_finite_state_exits_three(tmp_path, capsys, monkeypatch):
    def nan_theta(cfg, grid):
        theta = np.zeros((grid.nx + 1, grid.ny + 1))
        theta[3, 3] = np.nan
        return theta

    monkeypatch.setattr(cli, "initial_theta", nan_theta)
    rc, outdir = _run(tmp_path, dict(TINY, mode="decay"))
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (outdir / "report.json").exists()
    assert not (outdir / "series.csv").exists()


def test_corner_probe_mode_report(tmp_path):
    om = 3.0 * math.pi / 4.0
    cfg = {"mode": "corner-probe",
           "corner": {"omegas": [om], "qs": [1.2, 1.8], "n": 16,
                      "refine": [1.0, 1.5, 2.0, 3.0], "count": 2}}
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0
    ent = _report(outdir)["entries"][0]
    assert abs(ent["gamma_mixed"] - 2.0 / 3.0) < 1e-9
    assert abs(ent["gamma_dirichlet"] - 4.0 / 3.0) < 1e-9
    assert abs(ent["q_star"] - 1.5) < 1e-9
    assert ent["q_star_dirichlet"] == 2.0  # capped once the gradient is L^2
    assert abs(ent["eps_max"] - (math.pi / om - 1.0)) < 1e-12
    assert len(ent["eigenvalues_mixed"]) == 2
    verdicts = {p["q"]: p["verdict"] for p in ent["probes"]}
    assert verdicts == {1.2: "bounded", 1.8: "divergent"}
    assert all(len(p["norms"]) == 4 for p in ent["probes"])


def test_epsilon_sweep_mode_report(tmp_path):
    cfg = dict(TINY, mode="epsilon-sweep")
    cfg["sweep"] = {"eps_values": [0.2, 0.1], "t_end": 0.2}
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0
    rep = _report(outdir)
    assert rep["eps_values"] == [0.2, 0.1]
    # regularized energy exceeds the plain one and scales linearly in eps
    assert all(e > rep["E0_plain"] for e in rep["E0_eps"])
    assert rep["E0_eps"][0] > rep["E0_eps"][1]
    assert abs(rep["linearity_ratios"][0] - 2.0) < 1e-9
    assert len(rep["cauchy_sups"]) == 1
    assert rep["cauchy_sups"][0] > 0.0


def test_epsilon_sweep_starts_from_the_raw_stream_velocity(tmp_path):
    # the sweep builds its start state as a coupled run does, so
    # stream_amp reaches the flow of every eps
    cfg = dict(TINY, mode="epsilon-sweep")
    cfg["initial"] = dict(TINY["initial"], stream_amp=0.05)
    cfg["sweep"] = {"eps_values": [0.2, 0.1], "t_end": 0.04}
    rc, outdir = _run(tmp_path, cfg)
    assert rc == 0
    with open(outdir / "series.csv", newline="") as fh:
        got = list(csv.DictReader(fh))
    assert float(got[0]["E_u_L2"]) > 0.0


def test_warmup_steps_before_the_first_row(tmp_path):
    # warmup steps are taken and not reported: the run then continues from
    # the warmed state with its clock reset, so its rows are the later rows
    # of a run without warmup, apart from t
    base = dict(TINY, mode="coupled")
    base["initial"] = dict(TINY["initial"], theta_amp=0.01, stream_amp=0.05)
    warm = dict(base, time={"dt": 0.02, "t_end": 0.04, "save_every": 1,
                            "warmup": 0.04})
    cold = dict(base, time={"dt": 0.02, "t_end": 0.08, "save_every": 1})
    rows = []
    for name, cfg in (("warm", warm), ("cold", cold)):
        rc, outdir = _run(tmp_path, cfg, out=name)
        assert rc == 0
        with open(outdir / "series.csv", newline="") as fh:
            rows.append(list(csv.reader(fh))[1:])
    warm_rows, cold_rows = rows
    assert len(warm_rows) == 3 and len(cold_rows) == 5
    assert [float(r[0]) for r in warm_rows] == [0.0, 0.02, 0.04]
    assert [r[1:] for r in warm_rows] == [r[1:] for r in cold_rows[2:]]


def test_serial_rerun_is_byte_identical(tmp_path):
    cfg = dict(TINY, mode="decay", w3=0.5)
    rc_a, out_a = _run(tmp_path, cfg, out="a")
    rc_b, out_b = _run(tmp_path, cfg, out="b")
    assert rc_a == rc_b == 0
    series_a = (out_a / "series.csv").read_bytes()
    assert series_a == (out_b / "series.csv").read_bytes()
    # the echoed config is a valid input and reproduces the run exactly
    with open(out_a / "meta.json") as fh:
        echoed = json.load(fh)["config"]
    cli.validate_config(echoed)
    rc_c, out_c = _run(tmp_path, echoed, out="c")
    assert rc_c == 0
    assert series_a == (out_c / "series.csv").read_bytes()


def test_curved_decay_rerun_is_byte_identical(tmp_path, monkeypatch):
    # the single-precision velocity factor keeps a curved decay rerun exact
    dtypes = []

    def splu(A, **kw):
        dtypes.append(A.dtype)
        return spla.splu(A, **kw)

    monkeypatch.setattr(flow_mod, "spla", types.SimpleNamespace(splu=splu))
    cfg = dict(TINY, mode="decay", params={"gamma_jump": 0.3})
    cfg["initial"] = dict(TINY["initial"], theta_amp=0.01)
    rc_a, out_a = _run(tmp_path, cfg, out="a")
    rc_b, out_b = _run(tmp_path, cfg, out="b")
    assert rc_a == rc_b == 0
    assert dtypes == [np.float32, np.float32]
    assert (out_a / "series.csv").read_bytes() \
        == (out_b / "series.csv").read_bytes()
