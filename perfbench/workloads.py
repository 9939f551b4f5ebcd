"""Workload configs and output checks for the contactflow benchmark.

Each workload is one fixed `contactflow` CLI config. The seed perturbs only
the initial amplitudes (surface mode and temperature), each by at most
+-10 %, so every seed runs the same code paths on the same grid.
"""

import csv
import json
import math
import os
import random

NAMES = ("decay-flat-96x64", "decay-curved-48x32", "heat-96x64",
         "corner-probe")

# Base initial amplitudes; the seed scales each by a factor in [0.9, 1.1].
_ETA_AMP = 0.05
_THETA_AMP = 0.01

MAX_DIV_RESIDUAL = 1e-10     # ROADMAP volume-bookkeeping gate
HEAT_RATE_RTOL = 1e-3
CORNER_EIG_RTOL = 1e-8
# Wedge-integrability verdicts of the default corner-probe config, keyed by
# the corner angle as a multiple of pi, then by q.
CORNER_VERDICTS = {
    0.5: {1.2: "bounded", 1.8: "bounded"},
    0.75: {1.2: "bounded", 1.8: "divergent"},
}


def _amp(rng, base):
    return base * (1.0 + 0.2 * (rng.random() - 0.5))


def make_config(name, seed):
    """CLI config dict for workload `name`; `seed` sets the amplitudes."""
    rng = random.Random(seed)
    eta_modes = [[1, _amp(rng, _ETA_AMP)]]
    theta_amp = _amp(rng, _THETA_AMP)
    if name == "decay-flat-96x64":
        # four steps: each one factors the 96x64 saddle system once
        return {"mode": "decay", "grid": {"nx": 96, "ny": 64},
                "time": {"dt": 0.02, "t_end": 0.08, "save_every": 5},
                "initial": {"eta_modes": eta_modes, "theta_amp": theta_amp}}
    if name == "decay-curved-48x32":
        # gamma_jump 0.3 is a verified rest state with omega = 1.876
        return {"mode": "decay", "params": {"gamma_jump": 0.3},
                "grid": {"nx": 48, "ny": 32},
                "time": {"dt": 0.02, "t_end": 0.4, "save_every": 5},
                "initial": {"eta_modes": eta_modes, "theta_amp": theta_amp}}
    if name == "heat-96x64":
        return {"mode": "heat", "grid": {"nx": 96, "ny": 64},
                "time": {"dt": 0.02, "t_end": 6.0, "save_every": 5},
                "initial": {"theta_amp": theta_amp}}
    if name == "corner-probe":
        return {"mode": "corner-probe"}
    raise ValueError("unknown workload: %s" % name)


def read_outputs(outdir):
    """(report dict, series.csv bytes or None) of one finished CLI run."""
    with open(os.path.join(outdir, "report.json")) as fh:
        report = json.load(fh)
    path = os.path.join(outdir, "series.csv")
    series = None
    if os.path.exists(path):
        with open(path, "rb") as fh:
            series = fh.read()
    return report, series


def _series_problems(series):
    if series is None:
        return ["series.csv missing"]
    rows = list(csv.reader(series.decode().splitlines()))
    if len(rows) < 2:
        return ["series.csv has no data rows"]
    for row in rows[1:]:
        for cell in row:
            try:
                if not math.isfinite(float(cell)):
                    return ["series.csv holds %r" % cell]
            except ValueError:
                return ["series.csv holds %r" % cell]
    return []


def check_outputs(name, outdir):
    """List of problems with a finished run's outputs; empty when correct."""
    try:
        report, series = read_outputs(outdir)
    except (OSError, ValueError) as exc:
        return ["outputs unreadable: %s" % exc]
    mode = make_config(name, 0)["mode"]
    if report.get("mode") != mode:
        return ["report mode %r, expected %r" % (report.get("mode"), mode)]
    try:
        return _mode_problems(mode, report, series)
    except (KeyError, IndexError, TypeError) as exc:
        return ["report.json malformed: %r" % exc]


def _mode_problems(mode, report, series):
    if mode == "decay":
        problems = _series_problems(series)
        div = report["max_div_residual"]
        if not div <= MAX_DIV_RESIDUAL:
            problems.append("max_div_residual %r > %g"
                            % (div, MAX_DIV_RESIDUAL))
        return problems
    if mode == "heat":
        problems = _series_problems(series)
        fit = report["fitted_rate_E_th_L2"]
        expected = report["expected_rate_E_th_L2"]
        if not abs(fit - expected) <= HEAT_RATE_RTOL * abs(expected):
            problems.append("fitted rate %r vs expected %r" % (fit, expected))
        return problems
    return _corner_problems(report)


def _corner_problems(report):
    problems = []
    seen = set()
    for entry in report["entries"]:
        om = entry["omega"]
        for n, lam in enumerate(entry["eigenvalues_mixed"]):
            exact = (2 * n + 1) * math.pi / (2.0 * om)
            if not abs(lam - exact) <= CORNER_EIG_RTOL * exact:
                problems.append("omega %r: mixed eigenvalue %d is %r, "
                                "closed form %r" % (om, n, lam, exact))
        if entry["gamma_mixed"] != entry["eigenvalues_mixed"][0]:
            problems.append("omega %r: gamma_mixed is not the first mixed "
                            "eigenvalue" % om)
        key = round(om / math.pi, 6)
        expected = CORNER_VERDICTS.get(key)
        if expected is None:
            problems.append("omega %r has no recorded verdicts" % om)
            continue
        seen.add(key)
        got = {p["q"]: p["verdict"] for p in entry["probes"]}
        if got != expected:
            problems.append("omega %r: verdicts %r, expected %r"
                            % (om, got, expected))
    if seen != set(CORNER_VERDICTS):
        problems.append("corner angles %r, expected %r"
                        % (sorted(seen), sorted(CORNER_VERDICTS)))
    return problems
