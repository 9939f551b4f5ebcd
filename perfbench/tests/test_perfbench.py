"""Tests of the benchmark's own code: workloads, checks, tracer, metrics."""

import json
import math
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Same modes and code paths as each workload, on grids small enough for a
# smoke run. The heat fit still needs 100 steps to meet its 0.1 % check.
TINY = {
    "decay-flat-96x64": {"grid": {"nx": 16, "ny": 12},
                         "time": {"dt": 0.02, "t_end": 0.04}},
    "decay-curved-48x32": {"grid": {"nx": 16, "ny": 12},
                           "time": {"dt": 0.02, "t_end": 0.06}},
    "heat-96x64": {"grid": {"nx": 16, "ny": 12},
                   "time": {"dt": 0.02, "t_end": 2.0, "save_every": 5}},
    "corner-probe": {"corner": {"n": 24, "count": 1}},
}


def _tiny_config(tmp_path, name, seed=3):
    cfg = workloads.make_config(name, seed)
    cfg.update(TINY[name])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_traced_run_passes_checks(tmp_path, name):
    cfg = _tiny_config(tmp_path, name)
    attempted, failed, metrics, versions = run.traced_run(
        name, cfg, tmp_path, time.perf_counter() + 120)
    assert (attempted, failed) == (3, 0)
    assert set(metrics) == set(run.PER_LAYER)
    assert versions["numpy"] and versions["scipy"]
    if name.startswith("decay"):
        assert metrics["flow.splu.calls"] == metrics["heat.splu.calls"] > 0
        assert metrics["flow.lu.nnz"] > metrics["flow.saddle.nnz"] > 0
        assert 0 < metrics["flow.max_div_residual"] <= 1e-10
    if name == "heat-96x64":
        assert metrics["heat.lu_reuse"] == 100.0
        assert metrics["flow.splu.calls"] == 0
    if name == "corner-probe":
        assert metrics["corner.angular_eigenvalues.calls"] == 4
        assert metrics["cli.series_bytes"] == 0


def test_timed_runs_report_end_to_end_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    name = "decay-curved-48x32"
    cfg = _tiny_config(tmp_path, name)
    attempted, failed, metrics, versions, nruns = run.timed_runs(
        name, cfg, tmp_path, 0, time.perf_counter() + 120)
    assert (attempted, failed, nruns) == (3, 0, 1)
    assert set(metrics) == set(run.END_TO_END)
    assert 0 < metrics["setup_s"] < metrics["wall_s"]
    assert metrics["cpu_s"] > 0 and metrics["peak_rss_mb"] > 0


def test_check_outputs_flags_bad_runs(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text(json.dumps(
        {"mode": "decay", "max_div_residual": 1e-12}))
    (out / "series.csv").write_text("t,E_total\n0.0,1.0\n0.02,0.9\n")
    assert workloads.check_outputs("decay-flat-96x64", out) == []
    (out / "series.csv").write_text("t,E_total\n0.0,1.0\n0.02,nan\n")
    assert workloads.check_outputs("decay-flat-96x64", out)
    (out / "series.csv").write_text("t,E_total\n0.0,1.0\n")
    (out / "report.json").write_text(json.dumps(
        {"mode": "decay", "max_div_residual": 1e-9}))
    assert workloads.check_outputs("decay-flat-96x64", out)

    (out / "series.csv").write_text("t,E_th_L2\n0.0,1.0\n0.1,0.7\n")
    for fit, ok in ((3.8203, True), (3.83, False)):
        (out / "report.json").write_text(json.dumps(
            {"mode": "heat", "fitted_rate_E_th_L2": fit,
             "expected_rate_E_th_L2": 3.82}))
        assert (workloads.check_outputs("heat-96x64", out) == []) == ok

    entries = [{"omega": om, "eigenvalues_mixed": [math.pi / (2 * om)],
                "gamma_mixed": math.pi / (2 * om),
                "probes": [{"q": q, "verdict": v} for q, v in verdicts.items()]}
               for om, verdicts in ((math.pi / 2, {1.2: "bounded",
                                                   1.8: "bounded"}),
                                    (3 * math.pi / 4, {1.2: "bounded",
                                                       1.8: "divergent"}))]
    (out / "report.json").write_text(json.dumps(
        {"mode": "corner-probe", "entries": entries}))
    assert workloads.check_outputs("corner-probe", out) == []
    entries[1]["probes"][1]["verdict"] = "bounded"
    (out / "report.json").write_text(json.dumps(
        {"mode": "corner-probe", "entries": entries}))
    assert workloads.check_outputs("corner-probe", out)


def test_seed_changes_only_initial_amplitudes():
    for name in workloads.NAMES:
        a, b = workloads.make_config(name, 1), workloads.make_config(name, 2)
        assert a == workloads.make_config(name, 1)
        assert {k: v for k, v in a.items() if k != "initial"} == \
            {k: v for k, v in b.items() if k != "initial"}
        if "initial" in a:
            assert a["initial"] != b["initial"]
            assert a["initial"].keys() == b["initial"].keys()


def test_stand_ins_are_restored_after_error():
    rec = tracer.Tracer()
    targets = tracer.stand_ins(rec, child.load_modules())
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    with pytest.raises(ZeroDivisionError):
        with tracer.patched(targets):
            assert all(vars(owner)[attr] is not orig
                       for (owner, attr, _), orig in zip(targets, before))
            1 / 0
    assert [vars(owner)[attr] for owner, attr, _ in targets] == before
    assert not rec.spans


def test_self_time_excludes_nested_spans():
    spans = [{"name": "a", "start": 0, "end": 10_000_000, "parent": -1},
             {"name": "b", "start": 1_000_000, "end": 4_000_000,
              "parent": 0},
             {"name": "b", "start": 5_000_000, "end": 6_000_000,
              "parent": 0}]
    stats = tracer.span_stats(spans)
    assert stats["a"]["self_ms"] == pytest.approx(6.0)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["ms"] == pytest.approx(4.0)
    assert tracer.percentile([3, 1, 2, 4, 5], 80) == 4


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for section, emitted in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == emitted
        for name in emitted:
            assert name_re.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert spec["paths"] == ["perfbench"]
