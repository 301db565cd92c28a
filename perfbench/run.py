"""Benchmark of the `dowlingnest` command line, run in process.

    python3 perfbench/run.py --workload subspace --seed 1 --seconds 40 --trace 0

One client in one process, no threads: a closed loop that calls
`dowlingnest.cli.main(argv)` for one job after another and checks each
job's stdout against the answer pinned in `pins.json`.  The seed shuffles
the job order of every pass; the library sees only the generated argv.

With `--trace 0` the run sets up several times, then repeats whole passes
over the job list until `--seconds` is spent, and reports the end-to-end
metrics of `metrics.END_TO_END` as medians over set-ups and passes.  With
`--trace 1` one pass runs with every layer wrapped in spans (`spans.py`)
and the others untraced; it reports `metrics.PER_LAYER` and writes the
spans to `perfbench/out/`.  Times are scaled to free-core seconds by the
reference kernel of `speed.py`, run between jobs.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 only when every
job printed its pinned answer; it is 2, with no result line, when the
checkout lacks the library or its instances.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from jobs import INSTANCE_FILES, ROUTES, WORKLOADS, check
from metrics import END_TO_END, PER_LAYER
from spans import Tracer
from speed import SETUP_SENSITIVITY, scale, time_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INSTANCES = ROOT / "instances"
OUT = HERE / "out"

# Set-ups per run; setup_s is their median.  The first also pays for the
# standard-library imports and any bytecode compilation.
SETUP_REPEATS = 7
# Reference-kernel runs per pass, spread evenly over its jobs.
KERNEL_RUNS_PER_PASS = 24


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def missing_inputs(workload):
    needed = [SRC / "dowlingnest" / "cli.py"] + [
        INSTANCES / INSTANCE_FILES[name]
        for name in dict.fromkeys(name for name, _ in workload.instances())
    ]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def set_up(workload):
    """Import the library afresh and load every instance; returns seconds."""
    for name in [m for m in sys.modules if m.split(".")[0] == "dowlingnest"]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("dowlingnest.cli")
    load_instance = sys.modules["dowlingnest.instancefile"].load_instance
    for name, n in workload.instances():
        load_instance(str(INSTANCES / INSTANCE_FILES[name]), n_override=n)
    return perf_counter() - start


class Runner:
    """Runs jobs through `cli.main`, times them and checks their answers."""

    def __init__(self, workload, pins, tracer=None):
        self.workload = workload
        self.pins = pins
        self.cli = sys.modules["dowlingnest.cli"]
        self.tracer = tracer
        self.kernel_runs = max(1, round(KERNEL_RUNS_PER_PASS / len(workload.jobs)))
        self.failures = []  # (job name, reason)
        self.jobs = []  # job id -> Job, in the order run

    def run_job(self, job, traced=False):
        argv = job.argv(INSTANCES)
        out, err = io.StringIO(), io.StringIO()
        job_id = len(self.jobs)
        self.jobs.append(job)
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                if traced:
                    code = self.tracer.run_job(job_id, lambda: self.cli.main(argv))
                else:
                    code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed job, not a failed run
                code = f"raised {exc!r}"
            elapsed = perf_counter() - start
        reason = check(job, self.pins, code, out.getvalue())
        if reason is not None:
            self.failures.append((job.name, reason))
            print(f"FAILED {job.name}: {reason} {err.getvalue()[-300:]}", file=sys.stderr)
        return elapsed

    def run_pass(self, rng, traced=False):
        """One shuffled pass: {"jobs": {job name: seconds}, "kernel_s": [...]}."""
        order = rng.sample(self.workload.jobs, len(self.workload.jobs))
        times, kernel = {}, []
        if traced:
            self.tracer.install()
        try:
            for job in order:
                times[job.name] = self.run_job(job, traced)
                kernel += time_kernel(self.kernel_runs)
        finally:
            if traced:
                self.tracer.uninstall()
        return {"jobs": times, "kernel_s": kernel}

    def run_passes(self, rng, seconds):
        """Untraced passes, at least one, while the next is expected to end
        within `seconds`."""
        start = perf_counter()
        passes, durations = [], []
        while not durations or (
            perf_counter() - start + statistics.median(durations) <= seconds
        ):
            began = perf_counter()
            passes.append(self.run_pass(rng))
            durations.append(perf_counter() - began)
        return passes


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def pass_times(workload, run_pass):
    """Unscaled seconds of a pass: all its jobs (`wall`) and each route."""
    times = {"wall": sum(run_pass["jobs"].values())}
    for job in workload.jobs:
        times[job.route] = times.get(job.route, 0.0) + run_pass["jobs"][job.name]
    return times


def route_times(workload, passes, scaled=True):
    """Median over passes of `pass_times`, each pass scaled by its kernel times."""
    per_pass = []
    for p in passes:
        factor = scale(p["kernel_s"], workload.sensitivity) if scaled else 1.0
        per_pass.append({k: v * factor for k, v in pass_times(workload, p).items()})
    return {key: statistics.median(t[key] for t in per_pass) for key in per_pass[0]}


def write_out(name, data):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(data, fh)
    print(f"# wrote {(OUT / name).relative_to(ROOT)}", file=sys.stderr)


def measure_setups(workload):
    """(seconds, kernel times right after) for each of SETUP_REPEATS set-ups."""
    return [(set_up(workload), time_kernel(3)) for _ in range(SETUP_REPEATS)]


def end_to_end(runner, setups, rng, seconds, env):
    passes = runner.run_passes(rng, seconds)
    routes = route_times(runner.workload, passes)
    values = {
        "setup_s": statistics.median(s * scale(k, SETUP_SENSITIVITY) for s, k in setups),
        "wall_s": routes["wall"],
        "route_s": routes[runner.workload.route],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = route_times(runner.workload, passes, scaled=False)
    kernel_ms = 1000 * statistics.median(k for p in passes for k in p["kernel_s"])
    print(
        f"# {len(passes)} passes; unscaled medians: setup_s "
        f"{statistics.median(s for s, _ in setups):.4f}, wall_s {raw['wall']:.4f}, "
        f"route_s {raw[runner.workload.route]:.4f}; reference kernel {kernel_ms:.2f} ms"
    )
    write_out(
        f"result-{env['workload']}-seed{env['seed']}.json",
        {"environment": env, "setups": setups, "passes": passes, "metrics": values},
    )
    return values


def per_layer(runner, rng, seconds, env):
    """One traced pass, then untraced passes to fill `seconds`."""
    start = perf_counter()
    traced = runner.run_pass(rng, traced=True)
    passes = runner.run_passes(rng, seconds - (perf_counter() - start))
    tracer = runner.tracer

    factor = scale(traced["kernel_s"], runner.workload.sensitivity)
    values = {
        name: value * factor if PER_LAYER[name][0] == "s" else value
        for name, value in tracer.metrics().items()
    }
    routes = route_times(runner.workload, passes)
    for route in ROUTES.values():
        values[route] = routes.get(route, 0.0)
    values["trace_overhead_s"] = (
        pass_times(runner.workload, traced)["wall"] * factor - routes["wall"]
    )

    route_jobs = {
        i
        for i, job in enumerate(runner.jobs[: len(runner.workload.jobs)])
        if job.route == runner.workload.route
    }
    traced_route_s, self_by_layer = tracer.self_by_layer(route_jobs)
    write_out(
        f"trace-{env['workload']}-seed{env['seed']}.json",
        {
            "environment": env,
            "traced_pass": traced,
            "passes": passes,
            "route": runner.workload.route,
            "traced_route_s": traced_route_s,
            "route_self_s_by_layer": self_by_layer,
            **tracer.dump({i: job.name for i, job in enumerate(runner.jobs)}),
        },
    )
    print(
        f"# traced {runner.workload.route} {traced_route_s:.3f} s unscaled; "
        "self time by layer: "
        + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(self_by_layer.items(), key=lambda kv: -kv[1])
        ),
        file=sys.stderr,
    )
    return values


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = missing_inputs(workload)
    if missing:
        print(f"cannot run: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    rng = random.Random(args.seed)
    pins = json.loads((HERE / "pins.json").read_text())

    if args.trace:
        set_up(workload)
        runner = Runner(workload, pins, Tracer())
        values = per_layer(runner, rng, args.seconds, env)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        setups = measure_setups(workload)
        runner = Runner(workload, pins)
        values = end_to_end(runner, setups, rng, args.seconds, env)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from their table: {sorted(set(values) ^ set(units))}")

    for name in units:
        print(f"{name:32} {values[name]:>16.6f} {units[name]}")
    failed = len(runner.failures)
    print(f"# jobs attempted {len(runner.jobs)}, failed {failed}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(runner.jobs),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
