"""kposim benchmark: fixed experiment mixes through ``kposim.cli.run_experiment``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed-sweep --seed 1 --seconds 30 --trace 0

The workload (see workloads.py) is run single-process and closed-loop, one
experiment after another, with the library's default settings: no
``workers`` is passed, so the default thread pool is what gets measured.
Passes of the whole mix repeat until ``--seconds`` is used up (at least
three), and every timing is the median over passes.  Every experiment's
summary is checked for physics self-consistency.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes (at least two), and reports the per-layer
metrics of spans.py; its counts must repeat exactly between traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries info fields (machine, versions, per-experiment timings).  Exit
status: 0 when every check passed, 1 when an experiment raised or failed a
check, 2 when ``kposim`` cannot be imported from ``src/`` of the checkout.
"""

import os

# One BLAS thread, set before numpy is imported: the thread pool already
# uses every core, and BLAS threads on top of it oversubscribe them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("passed_frac", "fraction"))

# Serial per-evaluation costs at dim 30 from the ROADMAP.md baseline;
# printed beside the traced figures for comparison, never gated.
REFERENCE_COSTS = {"dynamics.rhs_us.ket_driven": 72.0,
                   "dynamics.rhs_us.dm_static": 134.0,
                   "tomography.simulate_ld_tomography.point_ms": 52.0}

# Small experiment through cli, model, dynamics and fileio, which loads the
# integrator and starts BLAS; its first call is part of set-up time.
WARM_UP = ("map-cat", {"system": {"K_MHz": 3.1, "P_MHz": 3.13,
                                  "Delta_MHz": 1.0, "dim": 12},
                       "samples": 3})


class SetupError(Exception):
    """kposim is not importable from the checkout's src/ directory."""


def import_kposim():
    if not os.path.isfile(os.path.join(SRC, "kposim", "__init__.py")):
        raise SetupError(f"no kposim package under {SRC}")
    sys.path.insert(0, SRC)
    import kposim
    import kposim.cli
    if not os.path.abspath(kposim.__file__).startswith(SRC + os.sep):
        raise SetupError(f"kposim imported from {kposim.__file__}, not {SRC}")
    return kposim


def warm_up(kposim, out):
    name, cfg = WARM_UP
    kposim.cli.run_experiment(name, cfg, out)


def probe_setup():
    """Child-process body: print seconds to import kposim and warm up."""
    t0 = time.perf_counter()
    kposim = import_kposim()
    warm_up(kposim, os.path.join(OUT, "setup"))
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup():
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--probe-setup"], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# passes


def run_pass(cli, experiments, out_dir):
    """Run every experiment once; return (seconds by label, failure messages)."""
    times, failures = {}, []
    for exp in experiments:
        out = os.path.join(out_dir, exp.label)
        t0 = time.perf_counter()
        try:
            summary = cli.run_experiment(exp.name, exp.config, out)
        except Exception:
            times[exp.label] = time.perf_counter() - t0
            failures.append(f"{exp.label}: raised\n{traceback.format_exc()}")
            continue
        times[exp.label] = time.perf_counter() - t0
        problems = exp.check(summary)
        written = os.path.join(out, exp.name, "summary.json")
        try:
            with open(written) as fh:
                on_disk = json.load(fh)
            if on_disk.get("experiment") != summary.get("experiment"):
                problems.append(f"{written} does not hold this summary")
        except (OSError, ValueError) as e:
            problems.append(f"cannot read {written}: {e}")
        if problems:
            failures.append(f"{exp.label}: " + "; ".join(problems))
    return times, failures


def keep_going(started, seconds, pass_walls, minimum):
    """Closed loop: start another pass while it is expected to fit."""
    if len(pass_walls) < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(pass_walls) <= seconds


def info_fields(kposim, args):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    pkg = os.path.join(SRC, "kposim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    default_workers = getattr(getattr(kposim, "parallel", None),
                              "default_workers", None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "default_pool": default_workers() if default_workers else None,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def blas_threads():
    """Thread count reported by OpenBLAS itself, or None if not OpenBLAS."""
    import ctypes
    try:
        import numpy._core._multiarray_umath as umath
    except ImportError:
        return None
    lib = ctypes.CDLL(umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def git_commit():
    """HEAD commit of the checkout, or None outside a git clone."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _median(values):
    return float(statistics.median(values))


def end_to_end(cli, experiments, args, out_dir):
    setup_s = measure_setup()
    passes, failures = [], []
    started = time.perf_counter()
    while keep_going(started, args.seconds, [sum(t.values()) for t in passes],
                     MIN_PASSES):
        times, failed = run_pass(cli, experiments, out_dir)
        passes.append(times)
        failures += failed
    walls = [sum(t.values()) for t in passes]
    metrics = {
        "wall_s": _median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = len(experiments) * len(passes)
    metrics["passed_frac"] = (attempted - len(failures)) / attempted
    extra = {"passes": len(passes), "wall_s_each": walls,
             "experiment_s": {e.label: _median([t[e.label] for t in passes])
                              for e in experiments}}
    return metrics, END_TO_END, attempted, failures, [], extra


def traced(cli, experiments, args, out_dir):
    started = time.perf_counter()
    untraced_times, failures = run_pass(cli, experiments, out_dir)
    untraced_wall = sum(untraced_times.values())
    per_pass, span_sets, walls = [], [], []
    tracer = Tracer()
    with tracer:
        while keep_going(started, args.seconds, walls, MIN_TRACED_PASSES):
            tracer.reset()
            times, failed = run_pass(cli, experiments, out_dir)
            failures += failed
            walls.append(sum(times.values()))
            span_sets.append(tracer.spans)
            per_pass.append(tracer.metrics())
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"),
                 span_sets)
    units = dict(PER_LAYER)
    metrics, unstable = {}, []
    for name, value in per_pass[0].items():
        if units[name] == "count":
            series = [p[name] for p in per_pass]
            if len(set(series)) != 1:
                unstable.append(f"trace count {name} differs between passes: {series}")
            metrics[name] = value
        else:
            metrics[name] = _median([p[name] for p in per_pass])
    metrics["trace.overhead_s"] = _median(walls) - untraced_wall
    attempted = len(experiments) * (1 + len(per_pass))
    extra = {"traced_passes": len(per_pass), "untraced_wall_s": untraced_wall,
             "traced_wall_s_each": walls, "absent": tracer.absent,
             "reference_costs": {k: {"traced": metrics[k], "reference": v}
                                 for k, v in REFERENCE_COSTS.items()}}
    return metrics, PER_LAYER, attempted, failures, unstable, extra


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--probe-setup"]:
        return probe_setup()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        kposim = import_kposim()
        warm_up(kposim, os.path.join(OUT, "setup"))
    except (SetupError, ImportError) as e:
        print(f"benchmark set-up failed: {e}", file=sys.stderr)
        return 2
    experiments = WORKLOADS[args.workload](args.seed)
    out_dir = os.path.join(OUT, args.workload)
    measure = traced if args.trace else end_to_end
    try:
        metrics, declared, attempted, failures, unstable, extra = measure(
            kposim.cli, experiments, args, out_dir)
    except SetupError as e:
        print(f"benchmark set-up failed: {e}", file=sys.stderr)
        return 2
    for message in failures + unstable:
        print(f"FAILED {message}", file=sys.stderr)
    info = info_fields(kposim, args)
    info.update(extra)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not (failures or unstable),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }))
    return 0 if not (failures or unstable) else 1


if __name__ == "__main__":
    sys.exit(main())
