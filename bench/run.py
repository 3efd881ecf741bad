"""martree benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload forest --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
``--trace 0`` the run sets up its inputs several times (``setup_s`` is the
median), then repeats the workload's step list until ``--seconds`` have
passed, at least once, and reports the end-to-end metrics.  With
``--trace 1`` it makes one untraced pass and one traced pass in the same
process and reports the per-layer metrics.  Every metric is printed as
``name = value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A step fails on an exception, a
nonzero exit code, a failed known-answer check or, at the pinned seed, a
digest that differs from ``bench/pins.json`` (``--repin`` rewrites those).
Run records go to ``.bench_runs/``.  ``python3 bench/selfcheck.py`` checks
the benchmark itself at reduced depth.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PINS_FILE = BENCH_DIR / "pins.json"
PINNED_SEED = 0
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import martree, martree.cli, martree.fileio; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["forest", "certify", "configs"])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "small"], default="full",
                        help="small runs every step list at reduced depth, for the self-check")
    parser.add_argument("--repin", action="store_true",
                        help=f"write this run's digests to {PINS_FILE.name} (seed {PINNED_SEED} only)")
    return parser.parse_args(argv)


def tail(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None, "tail_pct": None, "tail": None}
    if n >= 11:
        rank = n - 11
        out["tail_pct"] = 100.0 * (rank + 1) / n
        out["tail"] = xs[rank]
    return out


def run_pass(step_list, pins, tracer=None) -> list[dict]:
    """Run each step once: time the call alone, then check and hash it."""
    results = []
    for step in step_list:
        shutil.rmtree(Path("out") / step.name, ignore_errors=True)
        problems, digest = [], None
        scope = tracer.span(f"step.{step.name}") if tracer else contextlib.nullcontext()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with scope:
                result = step.call()
        except Exception as exc:  # a failing step is counted, the run goes on
            traceback.print_exc()
            problems.append(f"raised {type(exc).__name__}: {exc}")
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        check0 = time.perf_counter()
        if not problems:
            try:
                problems, digest = step.check(result)
            except Exception as exc:
                traceback.print_exc()
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        check_s = time.perf_counter() - check0
        if pins is not None and digest != pins.get(step.name):
            problems.append(f"digest {digest} differs from pinned {pins.get(step.name)}")
        results.append(
            {"step": step.name, "wall_s": wall, "cpu_s": cpu, "check_s": check_s, "digest": digest, "problems": problems}
        )
    return results


def import_seconds(src: Path) -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(out.stdout.strip().splitlines()[-1])


def host_steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over this machine's CPUs.

    Timings here vary with the load other guests put on the host; the steal
    counter during a run shows part of that.  None where /proc/stat is absent.
    """
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def git_sha(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "martree").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "martree" / "__init__.py").is_file():
        print(f"error: no martree package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.repin and args.seed != PINNED_SEED:
        print(f"error: --repin needs --seed {PINNED_SEED}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so fix it before any import.
    blas_threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import martree
    import numpy
    import scipy

    import spans
    import workloads

    process_import_s = time.perf_counter() - t0
    if not Path(martree.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: martree was imported from {martree.__file__}, not {src}", file=sys.stderr)
        return 2

    pins = None
    if args.seed == PINNED_SEED and not args.repin:
        all_pins = json.loads(PINS_FILE.read_text()) if PINS_FILE.is_file() else {}
        pins = all_pins.get(args.workload, {}).get(args.scale, {})

    run_dir = root / ".bench_runs" / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        record, metrics, passes = measure(args, src, pins, spans, workloads, run_dir)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)

    step_results = [r for p in passes for r in p]
    failed = [r for r in step_results if r["problems"]]
    if args.repin:
        all_pins = json.loads(PINS_FILE.read_text()) if PINS_FILE.is_file() else {}
        all_pins.setdefault(args.workload, {})[args.scale] = {r["step"]: r["digest"] for r in passes[0]}
        PINS_FILE.write_text(json.dumps(all_pins, indent=1, sort_keys=True) + "\n")

    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "seconds": args.seconds,
            "git_sha": git_sha(root),
            "source_sha256": source_sha(src),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": blas_threads,
            "process_import_s": process_import_s,
            "pinned_digests_checked": pins is not None,
            "attempted": len(step_results),
            "failed": len(failed),
            "passes": passes,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )
    (run_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n")

    for r in failed:
        print(f"FAILED {r['step']}: {'; '.join(r['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    if args.trace:
        print(f"trace coverage = {record['tracing']['coverage']} (layer self time / traced time)")
    print(f"run record: {run_dir / 'run.json'}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(step_results),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def measure(args, src, pins, spans, workloads, run_dir):
    """Set up, run the passes, and compute the metrics of one run."""
    record = {}
    if args.trace:
        inputs = workloads.setup(args.workload, args.seed, args.scale)
        untraced = run_pass(workloads.steps(args.workload, inputs), pins)
        tracer = spans.Tracer()
        record["wrapped_callables"] = tracer.install()
        with tracer.span("setup"):
            inputs = workloads.setup(args.workload, args.seed, args.scale)
        traced = run_pass(workloads.steps(args.workload, inputs), pins, tracer)
        passes = [untraced, traced]
        summary = tracer.summary()
        tracer.save(run_dir / "spans.npz")
        untraced_wall = sum(r["wall_s"] for r in untraced)
        traced_wall = sum(r["wall_s"] for r in traced)
        layer_self = sum(summary["by_layer"][layer]["self_s"] for layer in spans.LAYERS)
        record["tracing"] = {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "traced_root_s": summary["root_s"],
            "layer_self_s": layer_self,
            "coverage": layer_self / summary["root_s"],
            "spans": summary["spans"],
            "computed_counts": dict(tracer.counts),
            "by_layer": summary["by_layer"],
            "by_name": summary["by_name"],
        }
        metrics = {name: (fn(summary, tracer.counts), unit) for name, (unit, fn) in spans.PER_LAYER.items()}
        metrics["trace_overhead_s"] = (traced_wall - untraced_wall, "s")
        attempted = len(untraced) + len(traced)
        failures = sum(bool(r["problems"]) for r in untraced + traced)
        metrics["fail_rate"] = (failures / attempted, "ratio")
        return record, metrics, passes

    setup_samples, import_samples = [], []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds(src)
        t0 = time.perf_counter()
        inputs = workloads.setup(args.workload, args.seed, args.scale)
        setup_samples.append(imp + time.perf_counter() - t0)
        import_samples.append(imp)
    step_list = workloads.steps(args.workload, inputs)
    passes = []
    steal0 = host_steal_seconds()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(step_list, pins))
    steal1 = host_steal_seconds()
    record["host_steal_s"] = None if steal0 is None else steal1 - steal0
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    cpus = [sum(r["cpu_s"] for r in p) for p in passes]
    by_step: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            by_step.setdefault(r["step"], []).append(r["wall_s"])
    record["setup_s_samples"] = setup_samples
    record["import_s_samples"] = import_samples
    record["pass_wall_s"] = tail(walls)
    record["step_wall_s"] = {name: tail(xs) for name, xs in by_step.items()}
    record["all_step_wall_s"] = tail([x for xs in by_step.values() for x in xs])
    attempted = sum(len(p) for p in passes)
    failures = sum(bool(r["problems"]) for p in passes for r in p)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_rate": ((attempted - failures) / attempted, "ratio"),
    }
    return record, metrics, passes


if __name__ == "__main__":
    sys.exit(main())
