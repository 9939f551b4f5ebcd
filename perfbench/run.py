"""Benchmark of the contactflow CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is one `contactflow` CLI run in a fresh child process, one
child at a time. With --trace 0 the benchmark repeats the untraced CLI run
for about S seconds, times set-up in SETUP_REPEATS probe children spread
between those runs, and reports medians. With --trace 1 it runs the same
config untraced, traced and untraced again, checks that the traced outputs
are byte-identical to the untraced ones and reports the per-layer metrics
of the traced run. Each run's outputs are checked; the last line of
standard output is the result as JSON.

Files go to .perfbench_runs/NAME under the checkout root.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
DEADLINE_S = 170.0
# One BLAS/OpenMP thread: one run at a time on a 2-core box stays steady
# and reruns stay byte-identical. These must be set before numpy loads, so
# they go into the child's environment, not through --threads.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "equilibrium.solve_equilibrium.ms": "ms",
    "geometry.build_geometry.calls": "count",
    "geometry.build_geometry.ms": "ms",
    "geometry.sample_metric.calls": "count",
    "geometry.sample_metric.ms": "ms",
    "heat.HeatOperators.calls": "count",
    "heat.HeatOperators.self_ms": "ms",
    "heat.splu.calls": "count",
    "heat.splu.ms": "ms",
    "heat.lu_solve.ms": "ms",
    "heat.step_fd.calls": "count",
    "heat.step_fd.self_ms": "ms",
    "heat.lu_reuse": "ratio",
    "flow.FlowOperators.calls": "count",
    "flow.FlowOperators.self_ms": "ms",
    "flow.splu.calls": "count",
    "flow.splu.ms": "ms",
    "flow.lu_solve.ms": "ms",
    "flow.momentum_step.self_ms": "ms",
    "flow.coupled_step.p50_ms": "ms",
    "flow.coupled_step.p80_ms": "ms",
    "flow.saddle.n": "count",
    "flow.saddle.nnz": "count",
    "flow.lu.nnz": "count",
    "flow.lu.bytes_computed": "B",
    "flow.max_div_residual": "1",
    "diagnostics.energy_report.calls": "count",
    "diagnostics.energy_report.ms": "ms",
    "diagnostics.surface_norm.ms": "ms",
    "diagnostics.bulk_norm.ms": "ms",
    "corner.angular_eigenvalues.calls": "count",
    "corner.angular_eigenvalues.ms": "ms",
    "corner.wedge_poisson_probe.calls": "count",
    "corner.wedge_poisson_probe.self_ms": "ms",
    "corner.spsolve.ms": "ms",
    "cli.write_series_csv.ms": "ms",
    "cli.series_bytes": "B",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def child_env():
    """Environment of every child: the checkout's src, pinned threads and
    no CONTACTFLOW_* overrides leaking in from the caller."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CONTACTFLOW_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def run_child(cmd, rundir, log_name, deadline):
    """Run cmd to exit; wall time from exec to exit, CPU and max RSS from
    wait4. A child still running at `deadline` is killed."""
    with open(rundir / log_name, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=rundir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        killed = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not killed and time.perf_counter() > deadline:
                    proc.kill()
                    killed = True
                time.sleep(0.001)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "killed": killed, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def cli_cmd(cfg_path, outdir):
    return [sys.executable, "-m", "contactflow.cli", "--config",
            str(cfg_path), "--out", str(outdir)]


def child_cmd(kind, result_path, cfg_path, outdir):
    return [sys.executable, str(HERE / "child.py"), kind, str(result_path),
            "--"] + cli_cmd(cfg_path, outdir)[3:]


def _problems(name, res, outdir):
    if res["killed"]:
        return ["killed at the deadline"]
    if res["rc"] != 0:
        return ["exit code %d" % res["rc"]]
    return workloads.check_outputs(name, outdir)


def _report(log, problems):
    for p in problems:
        print("check failed (%s): %s" % (log, p), file=sys.stderr)
    return bool(problems)


def timed_runs(name, cfg_path, rundir, seconds, deadline):
    """Untraced runs for about `seconds`, with the set-up probes spread
    between them so that both sample the same stretch of machine time."""
    attempted = failed = 0
    versions = None
    setups, runs = [], []
    outdir = rundir / "out"

    def probe():
        nonlocal attempted, failed, versions
        log = "setup%d.log" % attempted
        result = rundir / "setup.json"
        res = run_child(child_cmd("setup", result, cfg_path,
                                  rundir / "setup_out"),
                        rundir, log, deadline)
        attempted += 1
        if res["rc"] == 0 and not res["killed"]:
            with open(result) as fh:
                out = json.load(fh)
            setups.append(out["setup_s"])
            versions = out["versions"]
        else:
            failed += _report(log, ["set-up probe exit %d" % res["rc"]])
        return res["wall_s"]

    probes = []
    busy = 0.0
    while True:
        if len(probes) < SETUP_REPEATS:
            probes.append(probe())
        shutil.rmtree(outdir, ignore_errors=True)
        log = "run%d.log" % attempted
        res = run_child(cli_cmd(cfg_path, outdir), rundir, log, deadline)
        attempted += 1
        failed += _report(log, _problems(name, res, outdir))
        runs.append(res)
        busy += res["wall_s"]
        typical = statistics.median(r["wall_s"] for r in runs)
        # stop unless the next run is expected to end within half a run of
        # the window; probes do not count against it
        if (busy + typical / 2 > seconds
                or time.perf_counter() + 2 * typical > deadline):
            break
    while len(probes) < SETUP_REPEATS:
        probes.append(probe())
    if not setups:
        raise BenchError("no set-up probe reached the first step")
    metrics = {key: statistics.median(r[key] for r in runs)
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return attempted, failed, metrics, versions, len(runs)


def _comparable(report):
    return {k: v for k, v in report.items() if k != "runtime_s"}


def traced_run(name, cfg_path, rundir, deadline):
    """Untraced, traced, untraced again: the overhead is the traced wall
    time minus the mean of the two untraced ones, so drift of the shared
    machine during the three runs cancels to first order."""
    def plain_run(i):
        out = rundir / ("out%d" % i)
        res = run_child(cli_cmd(cfg_path, out), rundir, "run%d.log" % i,
                        deadline)
        return res, _report("run%d.log" % i, _problems(name, res, out))

    first, failed_first = plain_run(0)
    result, traced_out = rundir / "trace.json", rundir / "traced_out"
    traced = run_child(child_cmd("trace", result, cfg_path, traced_out),
                       rundir, "traced.log", deadline)
    problems = _problems(name, traced, traced_out)
    if problems:
        _report("traced.log", problems)
        raise BenchError("traced run failed: %s" % "; ".join(problems))
    second, failed_second = plain_run(1)
    failed = failed_first + failed_second
    with open(result) as fh:
        trace = json.load(fh)
    with open(rundir / "spans.json", "w") as fh:
        json.dump(trace["spans"], fh)
    report, series = workloads.read_outputs(traced_out)
    mismatch = []
    if not trace["restored"]:
        mismatch.append("a traced attribute was not restored")
    if not failed:
        plain_report, plain_series = workloads.read_outputs(rundir / "out0")
        # report.json alone is not compared when a series exists: heat mode's
        # ARPACK eigenvalue starts from a random vector and varies in its
        # last digits from run to run.
        if series is not None:
            same = plain_series == series
        else:
            same = _comparable(plain_report) == _comparable(report)
        if not same:
            mismatch.append("traced outputs differ from untraced")
    failed += _report("traced.log", mismatch)
    metrics = tracer.layer_metrics(trace["spans"], report,
                                   len(series) if series else 0)
    metrics["trace.overhead_s"] = traced["wall_s"] - 0.5 * (
        first["wall_s"] + second["wall_s"])
    return 3, failed, metrics, trace["versions"]


def _source_digest():
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, versions):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "threads": {var: THREADS for var in THREAD_VARS},
        "versions": versions, "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "contactflow" / "cli.py").is_file():
        print("no contactflow source under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    rundir = ROOT / ".perfbench_runs" / args.workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    cfg_path = rundir / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(workloads.make_config(args.workload, args.seed), fh)

    try:
        if args.trace:
            attempted, failed, values, versions = traced_run(
                args.workload, cfg_path, rundir, deadline)
            units = PER_LAYER
        else:
            attempted, failed, values, versions, nruns = timed_runs(
                args.workload, cfg_path, rundir, args.seconds, deadline)
            units = END_TO_END
    except BenchError as exc:
        print("benchmark failed: %s (logs in %s)" % (exc, rundir),
              file=sys.stderr)
        return 1

    prov = provenance(args, versions)
    with open(rundir / "provenance.json", "w") as fh:
        json.dump(prov, fh, indent=2)
    print("provenance " + json.dumps(prov))
    if not args.trace:
        print("timed %d runs; fail_ratio %d/%d" % (nruns, failed, attempted))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
