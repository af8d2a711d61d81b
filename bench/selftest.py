"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size in both modes and
checks that the metric names and units emitted are exactly those
BENCHMARK.json declares, that every operation passed its output check
(fail_frac 0), and that the runner refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 170

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )


def check_workload(spec: dict, name: str) -> list[str]:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)]
        proc = run_bench([*args, "--size", "tiny"], ROOT)
        label = f"{name} --trace {trace}"
        if proc.returncode != 0:
            problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {key: value["unit"] for key, value in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            problems.append(f"{label}: missing {missing}, extra {extra}, unit differs {units}")
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{label}: result keys {sorted(result)}")
        if result["failed"] or not result["correct"] or result["attempted"] < 1:
            failures = [line for line in proc.stdout.splitlines() if line.startswith("# FAILED")]
            problems.append(f"{label}: fail_frac {result['failed']}/{result['attempted']} {failures}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without src/ the runner must exit non-zero and print no result."""
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        proc = run_bench(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    defined = {name: cls.why for name, cls in WORKLOADS.items()}
    if declared != defined:
        problems.append(f"BENCHMARK.json workloads {declared} != bench/workloads.py {defined}")
    for name in declared:
        found = check_workload(spec, name)
        print(f"{name}: {'FAILED' if found else 'ok'}", flush=True)
        problems += found
    problems += check_bare_directory(spec)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
