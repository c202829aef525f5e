#!/usr/bin/env python3
"""Benchmark of effectrestore: three seeded pipelines, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any checkout holding ``src/effectrestore``).
Workloads: ``binary-ingest``, ``latent-restore``, ``simulate-resample``
(see ``workloads.py`` for what each one stresses and why).

With ``--trace 0`` a run sets the inputs up several times (``setup_s`` is
the median), makes one untimed warm-up pass and then timed passes for
``--seconds``.  CLI passes spawn ``python -m effectrestore.cli`` for every
command, because users pay interpreter start and import on every call;
the latent-restore passes run in one child process.  ``wall_s`` is the
median pass time and ``peak_rss_mb`` the median over passes of the largest
RSS of the pass's own processes.  Every pass is checked against reference
values; a failed check, a non-zero exit or a raised error fails the pass.

With ``--trace 1`` the same pipeline runs in-process, alternating untraced
passes with passes in which every call into a layer records a span (see
``tracing.py``).  The per-layer metrics are medians over the traced
passes; ``trace.overhead_s`` is the traced median minus the untraced one.
Layers a workload does not call report 0.  The spans are written to
``.bench_work/traces/<workload>-seed<seed>.json``.

The second-to-last stdout line is a report with quartiles, sample counts,
``failed_share`` and the environment; the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
#: BLAS threads; never more than the cores this process may use
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings, which numpy reads on import)

import workloads  # noqa: E402
from tracing import NO_SPANS, Tracer, package_modules, patched  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: a run must finish within 180 s; children still running at this point are killed
RUN_LIMIT_S = 170.0
#: setup repeats: at least the first number, more (up to five times as many)
#: while their total stays under the second number of seconds
SETUP_REPEATS = (3, 1.5)
#: interpreter start plus ``import effectrestore.cli`` is timed this many times
STARTUP_REPEATS = 5

#: span names reported as "<name>.s" (inclusive seconds per pass)
TIMED_SPANS = (
    "io.read_samples_csv", "io.integer_samples", "io.write_samples_csv", "io.dump_json",
    "tables.empirical_joint", "tables.adjust_for_confounder",
    "mechanism.ErrorMatrix", "mechanism.component_mechanism",
    "restore.restore_joint.dense", "restore.restored_propensity.dense",
    "restore.restore_joint.factored", "restore.pushforward",
    "restore.propensity_profile", "restore.stratified_effect",
    "binary.causal_effect_binary", "binary.synthesize_samples",
    "linear.bootstrap_se", "linear.cov_from_samples",
    "dsep.tetrad_test", "simulate.simulate_discrete", "simulate.simulate_linear",
    "rng.make_rng",
)


def layer_values(summary: dict, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span summary."""

    def total(name: str, key: str = "s") -> float:
        return float(summary.get(name, {}).get(key, 0.0))

    def rate(name: str, key: str) -> float:
        secs = total(name)
        return total(name, key) / secs if secs > 0.0 else 0.0

    values = {f"{name}.s": total(name) for name in TIMED_SPANS}
    values.update({
        "io.read_samples_csv.rows_per_s": rate("io.read_samples_csv", "rows"),
        "io.write_samples_csv.rows_per_s": rate("io.write_samples_csv", "rows"),
        "linear.bootstrap_se.resamples_per_s": rate("linear.bootstrap_se", "resamples"),
        "simulate.simulate_discrete.peak_mb": total("simulate.simulate_discrete", "peak_mb"),
        "binary.causal_effect_binary.calls": total("binary.causal_effect_binary", "calls"),
        "rng.make_rng.calls": total("rng.make_rng", "calls"),
        "restore.linalg_calls": total("numpy.linalg.inv", "calls")
        + total("numpy.linalg.solve", "calls"),
        "cli.main.self_s": total("cli.main", "self_s"),
        "cli.effect_binary.boot_used_share": 0.0,
    })
    values.update(extra)
    return values


#: per-layer metric names, in report order; BENCHMARK.json lists the same set
PER_LAYER = tuple(layer_values({}, {})) + ("cli.startup_s", "trace.overhead_s")

UNITS = {"s": "s", "rows_per_s": "1/s", "resamples_per_s": "1/s", "peak_mb": "MB",
         "calls": "count", "linalg_calls": "count", "self_s": "s", "startup_s": "s",
         "overhead_s": "s", "boot_used_share": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_build, "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads(), "cpu": cpu,
    }


WORKLOADS = {cls.name: cls for cls in (
    workloads.BinaryIngest, workloads.LatentRestore, workloads.SimulateResample)}


def timed_setup(wl) -> list[float]:
    least, budget = SETUP_REPEATS
    times: list[float] = []
    while len(times) < least or (sum(times) < budget and len(times) < 5 * least):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def measure(wl, spawner: workloads.Spawner, seconds: float) -> list[dict]:
    """Warm-up pass first, then the timed passes."""
    if isinstance(wl, workloads.LatentRestore):
        doc, rss = wl.worker(spawner, seconds, 0)
        passes = [doc["warm"], *doc["passes"]]
        for p in passes:
            p["peak_rss_mb"] = rss
        return passes
    warm, passes = workloads.timed_passes(lambda: wl.spawn_pass(spawner), seconds)
    return [warm, *passes]


def cli_wrappers(tracer: Tracer) -> list[tuple]:
    """(function, recording wrapper) for every layer function ``cli`` reaches."""
    from effectrestore import binary, dsep, io, linear, rng, simulate, tables

    rows_read = lambda args, kwargs, out: {"rows": len(out[1])}  # noqa: E731
    rows_written = lambda args, kwargs, out: {"rows": len(args[2])}  # noqa: E731

    def resamples(args, kwargs, out):
        return {"resamples": kwargs.get("n_boot", linear.DEFAULT_BOOTSTRAP)}

    plan = (
        ("io.read_samples_csv", io.read_samples_csv, rows_read, False),
        ("io.integer_samples", io.integer_samples, None, False),
        ("io.write_samples_csv", io.write_samples_csv, rows_written, False),
        ("io.dump_json", io.dump_json, None, False),
        ("tables.empirical_joint", tables.empirical_joint, None, False),
        ("binary.causal_effect_binary", binary.causal_effect_binary, None, False),
        ("binary.synthesize_samples", binary.synthesize_samples, None, False),
        ("linear.bootstrap_se", linear.bootstrap_se, resamples, False),
        ("linear.cov_from_samples", linear.cov_from_samples, None, False),
        ("dsep.tetrad_test", dsep.tetrad_test, None, False),
        ("simulate.simulate_discrete", simulate.simulate_discrete, None, True),
        ("simulate.simulate_linear", simulate.simulate_linear, None, False),
        ("rng.make_rng", rng.make_rng, None, False),
    )
    return [(fn, tracer.wrap(name, fn, attrs, peak=peak)) for name, fn, attrs, peak in plan]


def trace_cli(wl, seconds: float) -> tuple[list[dict], list[dict], list[dict]]:
    """Alternating untraced and traced in-process passes of a CLI workload."""
    sys.path.insert(0, str(SRC))
    from effectrestore import cli

    tracer = Tracer()
    wrappers = cli_wrappers(tracer)
    counted = [(fn, tracer.wrap(f"numpy.linalg.{fn.__name__}", fn))
               for fn in (np.linalg.inv, np.linalg.solve)]

    def traced_pass() -> dict:
        pass_id = tracer.begin_pass()
        with patched(package_modules(), wrappers), patched([np.linalg], counted):
            result = wl.inprocess_pass(cli.main, tracer)
        result["summary"] = tracer.summary(pass_id)
        if not result["failures"]:
            result["extra"] = wl.layer_counts()
        return result

    plain, traced = workloads.traced_passes(
        lambda: wl.inprocess_pass(cli.main, NO_SPANS), traced_pass, seconds)
    return plain, traced, tracer.spans


def startup_seconds(spawner: workloads.Spawner, work: Path) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        spawner.run([sys.executable, "-c", "import effectrestore.cli"], work / "startup.log")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def trace(wl, spawner: workloads.Spawner, seconds: float, work: Path):
    """Per-layer metrics, every pass run, and the spans."""
    if isinstance(wl, workloads.LatentRestore):
        doc, _ = wl.worker(spawner, seconds, 1)
        plain, traced, spans = doc["plain"], doc["traced"], doc["spans"]
        startup = 0.0
    else:
        plain, traced, spans = trace_cli(wl, seconds)
        startup = startup_seconds(spawner, work)
    per_pass = [layer_values(p["summary"], p.get("extra", {})) for p in traced if "summary" in p]
    metrics = {name: statistics.median(p[name] for p in per_pass) if per_pass else 0.0
               for name in PER_LAYER if name not in ("cli.startup_s", "trace.overhead_s")}
    metrics["cli.startup_s"] = startup
    overhead = 0.0
    if plain and traced:
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = overhead
    return metrics, plain + traced, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "effectrestore" / "cli.py").is_file():
        print(f"bench: no effectrestore sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    spawner = workloads.Spawner(SRC, dict(os.environ), deadline)
    wl = WORKLOADS[args.workload](work, args.seed, workloads.SIZES[args.scale])
    try:
        setup_times = timed_setup(wl)
        if args.trace:
            metric_values, passes, spans = trace(wl, spawner, args.seconds, work)
        else:
            passes = measure(wl, spawner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in passes if p["failures"])
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "env": environment(),
        "setup_s": spread(setup_times), "passes": len(passes), "failed_share": failed / len(passes),
        "checks": sorted({c for p in passes for c in p["checks"]}),
        "failures": sorted({f for p in passes for f in p["failures"]})[:5],
    }
    if args.trace:
        trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({**report, "metrics": metric_values, "spans": spans}))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        timed = passes[1:]  # after the warm-up
        report["wall_s"] = spread([p["wall_s"] for p in timed])
        report["peak_rss_mb"] = spread([p["peak_rss_mb"] for p in timed])
        metric_values = {"setup_s": report["setup_s"]["median"],
                         "wall_s": report["wall_s"]["median"],
                         "peak_rss_mb": report["peak_rss_mb"]["median"]}
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": value, "unit": units.get(name) or unit_of(name)}
               for name, value in metric_values.items()}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
