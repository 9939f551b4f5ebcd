"""Command-line driver.

Run modes
---------
equilibrium    solve the static meniscus, export surface.csv + report.json
heat           conduction-only run on the fixed equilibrium geometry
coupled        full velocity/pressure/surface/temperature evolution
decay          coupled run plus exponential-decay fit and budget checks
corner-probe   contact-angle spectra and wedge integrability study
epsilon-sweep  regularization study: energy linearity and trajectory Cauchy

Configuration is a JSON file (--config) merged over built-in defaults, then
overridden by CONTACTFLOW_* environment variables (double underscore for
nesting, values parsed as JSON: CONTACTFLOW_PARAMS__MU=0.5) and finally by
the explicit flags. Every run writes meta.json echoing the fully merged
config; feeding that file back through --config reproduces series.csv byte
for byte. Floats are serialized with repr, so round-tripping is exact.

Exit codes: 0 success, 2 invalid configuration, 3 runtime failure
(divergent step, surface spill, solver breakdown).
"""

import argparse
import copy
import csv
import dataclasses
import functools
import io
import json
import math
import os
import platform
import sys
import time as _time

import numpy as np
import scipy

from . import corner as corner_mod
from . import diagnostics as diag
from . import equilibrium as eq_mod
from . import flow as flow_mod
from . import geometry
from . import heat as heat_mod
from .params import (ConstraintError, PhysicalParams, compute_eps_max,
                     select_exponents)

ENV_PREFIX = "CONTACTFLOW_"


def default_config():
    return {
        "mode": "decay",
        "out": "runs/out",
        "mean_height": 1.0,
        "eps": 0.0,
        "w3": 1.0,
        "params": {f.name: f.default
                   for f in dataclasses.fields(PhysicalParams)
                   if f.name != "theta_range"},
        "grid": {"nx": 48, "ny": 32},
        "time": {"dt": 0.02, "t_end": 6.0, "save_every": 5, "warmup": 0.0},
        "initial": {
            "eta_modes": [[1, 0.05]],
            "theta_amp": 0.0,
            "theta_mode": 1,
            "stream_amp": 0.0,
        },
        "corner": {
            "omegas": [math.pi / 2.0, 3.0 * math.pi / 4.0],
            "qs": [1.2, 1.8],
            "n": 40,
            "refine": [1.0, 1.5, 2.0],
            "count": 4,
        },
        "sweep": {"eps_values": [0.4, 0.2, 0.1, 0.05], "t_end": 0.6},
    }


# ============================================================
# config plumbing
# ============================================================

def _merge(base, override, path=""):
    for key, val in override.items():
        if key not in base:
            raise ConstraintError("unknown config key: %s%s" % (path, key))
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConstraintError("config key %s%s must be a table"
                                      % (path, key))
            _merge(base[key], val, path + key + ".")
        else:
            base[key] = val
    return base


def _env_overrides(environ):
    out = {}
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        parts = name[len(ENV_PREFIX):].lower().split("__")
        try:
            val = json.loads(raw)
        except ValueError:
            val = raw
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = val
    return out


def load_config(path=None, environ=None, overrides=None):
    cfg = default_config()
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConstraintError("config file must hold a JSON object")
        _merge(cfg, loaded)
    _merge(cfg, _env_overrides(os.environ if environ is None else environ))
    if overrides:
        _merge(cfg, overrides)
    return cfg


def _non_finite_leaf(node, path=""):
    """Dotted path of the first NaN or infinite number in node, else None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return None
    for key, val in children:
        found = _non_finite_leaf(val, "%s.%s" % (path, key) if path else key)
        if found is not None:
            return found
    return None


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _type_mismatch(node, default, path=""):
    """(dotted path, wanted type) of the first value whose type is not its
    default's, else None.

    An int default takes only ints and a float default ints or floats; a bool
    is no number. A list default types every entry like its first, unless
    its entries differ in type ([mode, amplitude]): then it is a fixed row
    typed entry by entry.
    """
    if isinstance(default, dict):
        children = [(key, node[key], default[key]) for key in default]
    elif isinstance(default, list):
        if not isinstance(node, list):
            return path, "a list"
        if len({type(d) for d in default}) == 1:
            children = [(i, val, default[0]) for i, val in enumerate(node)]
        elif len(node) == len(default):
            children = list(zip(range(len(node)), node, default))
        else:
            return path, "a list of %d entries" % len(default)
    else:
        wanted = (int, float) if type(default) is float else type(default)
        if isinstance(node, bool) != isinstance(default, bool) \
                or not isinstance(node, wanted):
            return path, _TYPE_NAMES[type(default)]
        return None
    for key, val, dflt in children:
        found = _type_mismatch(val, dflt,
                               "%s.%s" % (path, key) if path else str(key))
        if found is not None:
            return found
    return None


def validate_config(cfg):
    """Raise ConstraintError on anything a run would choke on."""
    bad = _non_finite_leaf(cfg)
    if bad is not None:
        raise ConstraintError("%s must be a finite number" % bad)
    bad = _type_mismatch(cfg, default_config())
    if bad is not None:
        raise ConstraintError("%s must be %s" % bad)
    modes = ("equilibrium", "heat", "coupled", "decay", "corner-probe",
             "epsilon-sweep")
    if cfg["mode"] not in modes:
        raise ConstraintError("mode must be one of %s" % (modes,))
    # sigma(theta) > 0 must hold over the configured temperatures
    amp = max(1.0, abs(cfg["initial"]["theta_amp"]))
    params = PhysicalParams(**cfg["params"], theta_range=(-amp, amp))
    params.require_valid()
    if not 0.0 < cfg["mean_height"] <= params.big_l:
        raise ConstraintError("mean_height must lie in (0, big_l]")
    if cfg["grid"]["nx"] < 8 or cfg["grid"]["ny"] < 8:
        raise ConstraintError("grid must be at least 8x8")
    if cfg["time"]["dt"] <= 0 or cfg["time"]["t_end"] <= 0:
        raise ConstraintError("time.dt and time.t_end must be positive")
    if cfg["time"]["warmup"] < 0:
        raise ConstraintError("time.warmup must be nonnegative")
    if cfg["time"]["save_every"] < 1:
        raise ConstraintError("time.save_every must be at least 1")
    if cfg["eps"] < 0 or any(e < 0 for e in cfg["sweep"]["eps_values"]):
        raise ConstraintError("eps and sweep.eps_values must be nonnegative")
    # the contact response kappa z + w3 z^3 must increase with z
    if cfg["w3"] < 0:
        raise ConstraintError("w3 must be nonnegative")
    # mode 0 is sin(0) = 0: a zero temperature whatever theta_amp says
    if cfg["initial"]["theta_mode"] < 1:
        raise ConstraintError("initial.theta_mode must be at least 1")
    # the linearity and Cauchy ratios compare neighbouring eps values
    if len(cfg["sweep"]["eps_values"]) < 2:
        raise ConstraintError("sweep.eps_values needs at least two entries")
    # the table whose t_end sets the step count of each time-stepping mode
    section = {"heat": "time", "coupled": "time", "decay": "time",
               "epsilon-sweep": "sweep"}.get(cfg["mode"])
    if section and int(round(cfg[section]["t_end"] / cfg["time"]["dt"])) < 1:
        raise ConstraintError("%s.t_end must exceed time.dt / 2, else the "
                              "run takes no step" % section)
    corner = cfg["corner"]
    if not corner["omegas"] or not corner["qs"]:
        raise ConstraintError("corner.omegas and corner.qs must not be empty")
    for om in corner["omegas"]:
        if not 0.0 < om < math.pi:
            raise ConstraintError("corner omegas must lie in (0, pi)")
    if corner["count"] < 1:
        raise ConstraintError("corner.count must be at least 1")
    if any(q < 1 for q in corner["qs"]):
        raise ConstraintError("corner.qs entries must be at least 1")
    # the wedge growth rate is a line fitted over the refined grid sizes;
    # a wedge grid of one cell has no interior node
    sizes = {int(round(corner["n"] * fac)) for fac in corner["refine"]}
    if len(sizes) < 2 or min(sizes) < 2:
        raise ConstraintError("corner.refine must give at least two distinct "
                              "grid sizes round(corner.n * factor), each at "
                              "least 2")
    return params


# ============================================================
# output helpers
# ============================================================

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # strip numpy scalar wrappers
    return str(v)


def write_series_csv(path, rows):
    """rows: list of lists aligned with diag.SERIES_COLUMNS."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(diag.SERIES_COLUMNS)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _plain(node):
    """node with numpy values as Python ones and NaN/inf floats as None."""
    if isinstance(node, dict):
        return {key: _plain(val) for key, val in node.items()}
    if isinstance(node, (list, tuple, np.ndarray)):
        return [_plain(val) for val in node]
    if isinstance(node, np.generic):
        node = node.item()
    if isinstance(node, float) and not math.isfinite(node):
        return None
    return node


def write_json(path, payload):
    """Strict JSON: a quantity that came out NaN or infinite is null."""
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


# ============================================================
# initial data recipes
# ============================================================

def initial_eta(cfg, grid):
    eta = np.zeros(grid.nx)
    for k, amp in cfg["initial"]["eta_modes"]:
        eta += amp * np.cos(int(k) * math.pi * grid.xc / grid.ell)
    return eta - eta.mean()


def initial_theta(cfg, grid):
    amp = cfg["initial"]["theta_amp"]
    m = int(cfg["initial"]["theta_mode"])
    if amp == 0.0:
        return np.zeros((grid.nx + 1, grid.ny + 1))
    X, S = np.meshgrid(grid.xf, grid.sf, indexing="ij")
    return amp * np.sin(m * math.pi * (X + grid.ell) / (2 * grid.ell)) \
        * np.sin(math.pi * S / 2.0)


def initial_velocity(cfg, grid):
    amp = cfg["initial"]["stream_amp"]
    if amp == 0.0:
        return None, None
    ell = grid.ell
    # u = (d psi/ds, -d psi/dx) of psi = amp sin(pi (x + ell)/ell) sin(pi s)
    Xf, Sc = np.meshgrid(grid.xf, grid.sc, indexing="ij")
    u1 = amp * math.pi * np.sin(math.pi * (Xf + ell) / ell) \
        * np.cos(math.pi * Sc)
    Xc, Sf = np.meshgrid(grid.xc, grid.sf, indexing="ij")
    u2 = -amp * (math.pi / ell) * np.cos(math.pi * (Xc + ell) / ell) \
        * np.sin(math.pi * Sf)
    # no-penetration on the walls and the bottom; sin(2 pi) is not 0 in floats
    u1[0, :] = 0.0
    u1[-1, :] = 0.0
    u2[:, 0] = 0.0
    return u1, u2


def build_problem(cfg, params):
    surface = eq_mod.solve_equilibrium(params, cfg["mean_height"])
    grid = geometry.make_grid(surface, cfg["grid"]["nx"], cfg["grid"]["ny"],
                              params.depth)
    return flow_mod.CoupledProblem(params=params, surface=surface, grid=grid,
                                   eps=cfg["eps"], w3=cfg["w3"])


# ============================================================
# run modes
# ============================================================

def run_equilibrium(cfg, params, outdir):
    surface = eq_mod.solve_equilibrium(params, cfg["mean_height"])
    eq_mod.export_surface_csv(surface, os.path.join(outdir, "surface.csv"))
    omega = surface.omega
    report = {
        "p0": surface.p0,
        "omega": omega,
        # |xi(tau_w) - ell|, the wall-condition residual of the k root,
        # and the root's Newton iterations
        "newton_residual": surface.newton_residual,
        "newton_iters": surface.newton_iters,
        "ode_residual": eq_mod.ode_residual(surface, params),
        "eps_max": compute_eps_max(omega),
        "exponents": vars(select_exponents(omega)),
        "mean_height": cfg["mean_height"],
    }
    return report, None


def _series_loop(cfg, problem, flow_state, heat_state, step=None,
                 fields=None, t_end=None, warmup=0.0):
    """Step the states to t_end, reporting every save_every steps.

    step(fields, flow_state, heat_state, dt) -> (flow_state, heat_state,
    fields of the new state) is one time step from a state whose geometry
    is fields, flow.coupled_step by default; fields is the geometry of the
    starting state, built from it when None. Each report uses its own
    state's geometry. The first round(warmup / dt) steps are taken before
    t = 0 and not reported. Returns the energy rows, the flow state of each
    row and the largest divergence residual and recenter drift.
    """
    dt = cfg["time"]["dt"]
    t_end = cfg["time"]["t_end"] if t_end is None else t_end
    save_every = cfg["time"]["save_every"]
    nsteps = int(round(t_end / dt))
    if step is None:
        step = functools.partial(flow_mod.coupled_step, problem)
    if fields is None:
        fields = geometry.build_geometry(problem.grid, flow_state.eta,
                                         flow_state.zdot)
    # An impulsive start has huge discrete time derivatives (u jumps from
    # rest in one step), which say nothing about the decay of the evolved
    # solution. Integrating through the transient and restarting the clock
    # measures the budget from a state whose histories reflect the actual
    # dynamics.
    warmup_steps = int(round(warmup / dt))
    for _ in range(warmup_steps):
        flow_state, heat_state, fields = step(fields, flow_state, heat_state,
                                              dt)
    if warmup_steps:
        flow_state = dataclasses.replace(flow_state, time=0.0)
        heat_state = dataclasses.replace(heat_state, time=0.0)
    rows = [diag.energy_report(problem, fields, flow_state,
                               heat_state).row()]
    saved = [flow_state]
    stats = {"max_div": 0.0, "max_recenter": 0.0}
    for n in range(1, nsteps + 1):
        flow_state, heat_state, fields = step(fields, flow_state, heat_state,
                                              dt)
        stats["max_div"] = max(stats["max_div"], flow_state.div_residual)
        stats["max_recenter"] = max(stats["max_recenter"],
                                    flow_state.recenter_log)
        if n % save_every == 0 or n == nsteps:
            rows.append(diag.energy_report(problem, fields, flow_state,
                                           heat_state).row())
            saved.append(flow_state)
    return rows, saved, stats


def run_heat(cfg, params, outdir):
    problem = build_problem(cfg, params)
    grid = problem.grid
    fields = geometry.build_geometry(grid, np.zeros(grid.nx))

    def conduct(fields, flow_state, heat_state, dt):
        """Conduction only: the flow stays at rest on the rest geometry."""
        heat_state = heat_mod.step_fd(fields, params.k, heat_state, dt,
                                      solver=problem.heat_solver)
        return flow_state, heat_state, fields

    rows, _, _ = _series_loop(
        cfg, problem, flow_mod.zero_flow_state(grid),
        heat_mod.HeatState(theta=initial_theta(cfg, grid)), step=conduct,
        fields=fields)
    # the spectrum factors B: free the stepping factor before it
    problem.heat_solver.release()
    lam = heat_mod.lowest_eigenvalues(fields, params.k, m=1)[0]
    times = [r[0] for r in rows]
    e_th = [r[diag.SERIES_COLUMNS.index("E_th_L2")] for r in rows]
    fit = diag.fit_decay(times, e_th, skip=len(times) // 4)
    report = {
        "lowest_eigenvalue": lam,
        "fitted_rate_E_th_L2": fit.lam,
        "expected_rate_E_th_L2": 2.0 * lam,
        "fit_r2": fit.r2,
        "heat_solver": _solver_report(problem.heat_solver),
    }
    return report, rows


def _solver_report(solver):
    """A lagged solver's counts plus the entries its held factor holds."""
    return {**solver.counts(), "factor_nnz": solver.factor_nnz}


def run_coupled(cfg, params, outdir, fit_report=False):
    problem = build_problem(cfg, params)
    grid = problem.grid
    eta0 = initial_eta(cfg, grid)
    u1r, u2r = initial_velocity(cfg, grid)
    flow_state = flow_mod.construct_flow_initial_data(problem, eta0, u1r,
                                                      u2r)
    heat_state = heat_mod.HeatState(theta=initial_theta(cfg, grid))
    rows, saved, stats = _series_loop(cfg, problem, flow_state, heat_state,
                                      warmup=cfg["time"]["warmup"])
    times = [r[0] for r in rows]
    e_tot = [r[diag.SERIES_COLUMNS.index("E_total")] for r in rows]
    d_tot = [r[diag.SERIES_COLUMNS.index("D_total")] for r in rows]
    report = {
        "final_E_total": e_tot[-1],
        "max_div_residual": stats["max_div"],
        "max_recenter_drift": stats["max_recenter"],
        "contact_speeds_final": list(saved[-1].contact_speeds),
        "omega": problem.surface.omega,
        "saddle_solver": _solver_report(problem.saddle_solver),
        "heat_solver": _solver_report(problem.heat_solver),
    }
    if fit_report:
        fit = diag.fit_decay(times, e_tot, skip=len(times) // 5)
        report["decay"] = {
            "lambda": fit.lam, "r2": fit.r2, "n_used": fit.n_used,
            "C_bound": diag.cumulative_bound(times, e_tot, d_tot),
            "E0": e_tot[0],
        }
    return report, rows


def run_corner_probe(cfg, params, outdir):
    ccfg = cfg["corner"]
    entries = []
    for om in ccfg["omegas"]:
        mixed = corner_mod.angular_eigenvalues(om, count=ccfg["count"],
                                               boundary="mixed")
        diri = corner_mod.angular_eigenvalues(om, count=ccfg["count"],
                                              boundary="dirichlet")
        probes = [{"q": rep.q, "growth_rate": rep.growth_rate,
                   "verdict": rep.verdict, "norms": rep.norms}
                  for rep in corner_mod.wedge_poisson_probe(
                      om, ccfg["qs"], ccfg["n"],
                      refine=tuple(ccfg["refine"]))]
        entries.append({
            "omega": om,
            "eigenvalues_mixed": list(mixed),
            "eigenvalues_dirichlet": list(diri),
            "gamma_mixed": mixed[0],
            "gamma_dirichlet": diri[0],
            "q_star": corner_mod.regularity_threshold(mixed),
            "q_star_dirichlet": corner_mod.regularity_threshold(diri),
            "eps_max": compute_eps_max(om),
            "probes": probes,
        })
    return {"entries": entries}, None


def run_epsilon_sweep(cfg, params, outdir):
    problem0 = build_problem(cfg, params)
    grid = problem0.grid
    eta0 = initial_eta(cfg, grid)
    eps_values = list(cfg["sweep"]["eps_values"])
    fields_eq = geometry.build_geometry(grid, np.zeros(grid.nx))

    e0_eps, trajectories = [], []
    rows_out = None
    for eps in eps_values:
        problem = dataclasses.replace(problem0, eps=eps)
        flow_state = flow_mod.construct_flow_initial_data(problem, eta0)
        heat_state = heat_mod.HeatState(theta=initial_theta(cfg, grid))
        rows, saved, _ = _series_loop(cfg, problem, flow_state, heat_state,
                                      t_end=cfg["sweep"]["t_end"])
        e0_eps.append(rows[0][diag.SERIES_COLUMNS.index("E_eps")])
        trajectories.append(saved)
        if rows_out is None:
            rows_out = rows
    # the plain energy does not depend on eps
    e0_plain = rows_out[0][diag.SERIES_COLUMNS.index("E_total")]

    diffs = [e - e0_plain for e in e0_eps]
    lin_ratios = [diffs[i] / diffs[i + 1] if diffs[i + 1] != 0 else math.nan
                  for i in range(len(diffs) - 1)]

    sups = []
    for a, b in zip(trajectories, trajectories[1:]):
        sup = 0.0
        for sa, sb in zip(a, b):
            d = diag.flow_difference(sa, sb)
            rep = diag.energy_report(problem0, fields_eq, d, None)
            sup = max(sup, rep.energy)
        sups.append(sup)
    cauchy_ratios = [sups[i + 1] / sups[i] if sups[i] > 0 else math.nan
                     for i in range(len(sups) - 1)]
    report = {
        "eps_values": eps_values,
        "E0_plain": e0_plain,
        "E0_eps": e0_eps,
        "linearity_diffs": diffs,
        "linearity_ratios": lin_ratios,
        "cauchy_sups": sups,
        "cauchy_ratios": cauchy_ratios,
    }
    return report, rows_out


# ============================================================
# entry point
# ============================================================

def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="contactflow",
        description="thermal free-boundary simulator with moving contact "
                    "points")
    ap.add_argument("mode", nargs="?", default=None,
                    help="equilibrium | heat | coupled | decay | "
                         "corner-probe | epsilon-sweep")
    ap.add_argument("--config", default=None, help="JSON config file")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--validate-only", action="store_true")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    overrides = {}
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.out is not None:
        overrides["out"] = args.out

    try:
        cfg = load_config(args.config, overrides=overrides)
        params = validate_config(cfg)
        if not args.validate_only:
            os.makedirs(cfg["out"], exist_ok=True)
    except (ConstraintError, OSError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    if args.validate_only:
        print("config ok")
        return 0

    outdir = cfg["out"]

    started = _time.time()
    runners = {
        "equilibrium": run_equilibrium,
        "heat": run_heat,
        "coupled": run_coupled,
        "decay": lambda c, p, o: run_coupled(c, p, o, fit_report=True),
        "corner-probe": run_corner_probe,
        "epsilon-sweep": run_epsilon_sweep,
    }
    try:
        report, rows = runners[cfg["mode"]](cfg, params, outdir)
    except (flow_mod.StabilityError, flow_mod.SpillError,
            eq_mod.EquilibriumError, RuntimeError) as exc:
        print("runtime failure: %s" % exc, file=sys.stderr)
        return 3

    report = {"mode": cfg["mode"], "runtime_s": _time.time() - started,
              **report}
    write_json(os.path.join(outdir, "report.json"), report)
    write_json(os.path.join(outdir, "meta.json"),
               {"config": cfg, "columns": list(diag.SERIES_COLUMNS),
                "versions": {"numpy": np.__version__,
                             "scipy": scipy.__version__,
                             "python": platform.python_version()}})
    if rows is not None:
        write_series_csv(os.path.join(outdir, "series.csv"), rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
