"""Self-check of the benchmark, at reduced depth, in well under a minute.

    python3 bench/selfcheck.py

Run from the root of a checkout.  For every workload it runs
``bench/run.py --scale small`` untraced and traced and checks that the run
is correct, that exactly the metrics ``BENCHMARK.json`` names are emitted
with their units, and that the traced layer self times cover the traced
time.  It then checks that a deliberately altered pinned digest is reported
as a failed step, and that the benchmark refuses to run without the package
source.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

# Share of the traced time that the martree layers' self times must cover;
# the rest is the benchmark's own code (config writes, stdout capture).
MIN_COVERAGE = 0.9

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def run_bench(root: Path, *args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), *args],
        cwd=cwd or root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_metrics(root: Path, workload: str, trace: int, expected: dict[str, str]) -> None:
    proc = run_bench(root, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
                     "--scale", "small")
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        check(False, f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct, {result['failed']} of {result['attempted']} steps failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{label}: emits exactly the {len(expected)} metrics of BENCHMARK.json with their units")
    for name, unit in expected.items():
        check(f"{name} = {result['metrics'].get(name, {}).get('value')} {unit}" in lines,
              f"{label}: prints {name} with unit {unit}")
    finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                 for m in result["metrics"].values())
    check(finite, f"{label}: every metric value is a finite number")
    if trace:
        record = json.loads((root / ".bench_runs" / f"{workload}-small-seed0-trace1" / "run.json").read_text())
        coverage = record["tracing"]["coverage"]
        check(coverage >= MIN_COVERAGE, f"{label}: layer self times cover {coverage:.3f} of the traced time")
    else:
        positive = all(m["value"] > 0 for m in result["metrics"].values())
        check(positive, f"{label}: every end-to-end metric is above zero")


def check_tampered_digest(root: Path) -> None:
    """An altered pinned digest must fail exactly its own step."""
    sys.path.insert(0, str(root / "src"))
    import run
    import workloads

    pins = json.loads(run.PINS_FILE.read_text())["forest"]["small"]
    work = root / ".bench_runs" / "selfcheck" / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        inputs = workloads.setup("forest", 0, "small")
        step_list = workloads.steps("forest", inputs)
        clean = run.run_pass(step_list, pins)
        check(not any(r["problems"] for r in clean), "pinned digests match at the pinned seed")
        target = step_list[0].name
        tampered = dict(pins, **{target: pins[target][:-1] + ("0" if pins[target][-1] != "0" else "1")})
        results = run.run_pass(step_list, tampered)
    finally:
        os.chdir(root)
        shutil.rmtree(work.parent, ignore_errors=True)
    failed = [r["step"] for r in results if r["problems"]]
    check(failed == [target], f"an altered digest for {target} fails exactly that step (failed: {failed})")


def check_refuses_without_source(root: Path) -> None:
    bare = root / ".bench_runs" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(Path(__file__).parent, bare / Path(__file__).parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(root, "--workload", "forest", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(root, workload, 0, end_to_end)
        check_metrics(root, workload, 1, per_layer)
    check_tampered_digest(root)
    check_refuses_without_source(root)
    print(f"self-check: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
