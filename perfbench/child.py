"""Child process of the benchmark: a `contactflow` CLI run, probed.

    python child.py setup RESULT.json -- CLI-ARGS...
        Time from before `import contactflow` to the first time step (or
        first corner probe) of the CLI run, then stop the run there.
    python child.py trace RESULT.json -- CLI-ARGS...
        Run the CLI to the end with every traced attribute replaced by a
        timing stand-in, restore the originals and write the spans.

Both write RESULT.json with the library versions the run loaded. The exit
code is the CLI's, or 4 when the child itself failed.
"""

import json
import platform
import sys
import time

import tracer

# First call of each run mode's main loop; set-up ends where one of them
# starts.
FIRST_STEP = (("flow", "coupled_step"), ("heat", "step_fd"),
              ("corner", "angular_eigenvalues"))


class _SetupDone(Exception):
    pass


def load_modules():
    """contactflow submodules by the short names `tracer` uses."""
    from contactflow import (cli, corner, diagnostics, equilibrium, flow,
                             geometry, heat)
    return {"cli": cli, "corner": corner, "diagnostics": diagnostics,
            "equilibrium": equilibrium, "flow": flow, "geometry": geometry,
            "heat": heat}


def _versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration", blas.get("name"))}


def run_setup(cli_args):
    t0 = time.perf_counter()
    modules = load_modules()

    def stop(*args, **kwargs):
        raise _SetupDone

    with tracer.patched([(modules[m], a, stop) for m, a in FIRST_STEP]):
        try:
            rc = modules["cli"].main(cli_args)
        except _SetupDone:
            return 0, {"setup_s": time.perf_counter() - t0}
    print("run ended before its first step", file=sys.stderr)
    return rc or 4, {}


def run_traced(cli_args):
    modules = load_modules()
    rec = tracer.Tracer()
    targets = tracer.stand_ins(rec, modules)
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    with tracer.patched(targets):
        rc = modules["cli"].main(cli_args)
    restored = all(vars(owner)[attr] is orig
                   for (owner, attr, _), orig in zip(targets, originals))
    return rc, {"spans": rec.spans, "restored": restored}


def main(argv):
    kind, result_path, sep = argv[:3]
    if kind not in ("setup", "trace") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 4
    run = run_setup if kind == "setup" else run_traced
    rc, result = run(argv[3:])
    result["versions"] = _versions()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
