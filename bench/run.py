"""caplora benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a caplora checkout. The runner imports ``caplora``
from ``src/`` of that checkout, writes the workload's seeded inputs under
``.bench_work/``, and runs the workload as a closed loop in this one
process: one pass after another, no threads, for ``--seconds`` seconds.
Every pass's outputs are checked. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs a few untraced passes, then
installs the tracer (``tracer.py``) and reports the per-layer metrics of
the traced passes. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import compileall
import gc
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
from pathlib import Path

import calibration
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_ROOT = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

# Set-up is timed in fresh interpreters; the median of these is setup_s.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name.endswith("_ns_per_call"):
        return "ns"
    if name.endswith("_us_per_call") or name.endswith("us_per_event"):
        return "us"
    if name.endswith("_ms") or name.endswith("_ms_per_call"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    if name.endswith("per_sim_h"):
        return "1/h"
    return "count"


def load_caplora():
    """Import caplora from this checkout's ``src``, never from elsewhere."""
    init = SRC / "caplora" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a caplora checkout")
    sys.path.insert(0, str(SRC))
    import caplora
    import caplora.cli  # noqa: F401 - not imported by the package itself

    if Path(caplora.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported caplora from {caplora.__file__}, not {init}")
    return caplora


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> tuple[int, int]:
    """(physical lines, non-blank non-comment lines) of src/caplora/*.py."""
    total = code = 0
    for path in sorted((SRC / "caplora").glob("*.py")):
        for line in path.read_text().splitlines():
            total += 1
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                code += 1
    return total, code


def measure_setup(workload) -> tuple[list[float], list[str]]:
    """Calibrated time of ``import caplora`` plus input parsing, each in a
    fresh interpreter that then times the calibration loop itself."""
    code = (
        "import statistics, sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.perf_counter()\n"
        "import caplora\n"
        f"{workload.setup_code()}"
        "setup = time.perf_counter() - t0\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import calibration\n"
        "loop = calibration.loop_seconds()\n"
        "print(repr(setup * calibration.REFERENCE_S / loop))\n"
    )
    # Time a warm install, as after ``pip install``: bytecode is cached even
    # where the environment sets PYTHONDONTWRITEBYTECODE.
    compileall.compile_dir(SRC / "caplora", quiet=1)
    samples, problems = [], []
    for hash_seed in range(1, SETUP_REPEATS + 1):
        # Import time swings by a third with the string-hash layout; the same
        # fixed set of hash seeds in every run takes that out of the spread.
        proc = subprocess.run(
            [sys.executable, "-s", "-c", code],
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            problems.append(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples, problems


class Loop:
    """Closed-loop pass runner that counts attempts and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_digest: str | None = None

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems[:5])

    def first(self):
        """Warm-up pass, checked in full; later passes must match its digest."""
        self.attempted += 1
        try:
            output = self.workload.first_pass()
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            self.fail([f"first pass raised {type(exc).__name__}: {exc}"])
            return None
        problems = self.workload.check(output)
        if not problems:
            problems = self.workload.verify(output)
        if problems:
            self.fail(problems)
        self.reference_digest = output.digest()
        return output

    def timed(self, seconds: float, min_passes: int, after_pass=None) -> Timings:
        """Run passes for ``seconds``, each between two calibration loops."""
        timings = Timings()
        durations = timings.raw
        deadline = time.perf_counter() + seconds
        timings.loops.append(calibration.loop_seconds())
        while len(durations) < min_passes or time.perf_counter() < deadline:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                output = self.workload.run_pass()
            except Exception as exc:  # noqa: BLE001 - a failed operation is data
                output = None
                problem = f"pass raised {type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - t0)
            if output is None:
                self.fail([problem])
            elif output.digest() != self.reference_digest:
                self.fail([f"pass output digest {output.digest()} != first pass"])
            # A simulator holds reference cycles; collecting them here, untimed,
            # keeps peak memory from depending on when the collector ran.
            del output
            gc.collect()
            timings.loops.append(calibration.loop_seconds())
            if after_pass is not None:
                problems = after_pass()
                if problems:
                    self.fail(problems)
        return timings


class Timings:
    """Raw pass durations and the calibration loops timed around them."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.loops: list[float] = []  # one before each pass and one after the last

    def calibrated(self) -> list[float]:
        """Each pass in calibrated seconds, scaled by the loops on both sides."""
        return [
            raw * 2 * calibration.REFERENCE_S / (before + after)
            for raw, before, after in zip(self.raw, self.loops, self.loops[1:])
        ]


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99, 95, 90, 75):
        index = -(-q * n // 100) - 1  # nearest rank
        if n - 1 - index >= 10:
            return q, ordered[index]
    return None


def reference_check(workload, output, pin: bool) -> list[str]:
    path = REFERENCE_DIR / f"{workload.name}.json"
    summary = workload.summary(output)
    if pin:
        REFERENCE_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps({"seed": DEFAULT_SEED, "digests": output.digests, "summary": summary}, indent=1)
            + "\n"
        )
        print(f"# pinned reference {path.relative_to(ROOT)}")
        return []
    if not path.is_file():
        return [f"missing reference {path.relative_to(ROOT)}"]
    reference = json.loads(path.read_text())
    if reference["digests"] != output.digests:
        print(f"# output digests moved from the reference: {reference['digests']}")
    return workload.compare(summary, reference["summary"])


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<40} {value:>16.6g} {unit:<6} {note}".rstrip())


def _tail_note(samples: list[float]) -> str:
    tail = tail_percentile(samples)
    if tail is None:
        return "no percentile above p50 has 10 samples beyond it"
    return f"p{tail[0]}={tail[1]:.6g} s"


def run_untraced(loop: Loop, workload, seconds: float) -> dict[str, float]:
    setup, setup_problems = measure_setup(workload)
    loop.attempted += SETUP_REPEATS
    for problem in setup_problems:
        loop.fail([problem])
    if not setup:
        sys.exit("error: every set-up run failed: " + "; ".join(setup_problems))
    timings = loop.timed(seconds, min_passes=3)
    passes = timings.calibrated()
    wall = statistics.median(passes)
    work = workload.work()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": wall,
        "work_per_s": work / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    per_s = {"sim_h": "sim_h_per_s", "rows": "rows_per_s"}[workload.work_unit]
    n = len(passes)
    print_metric("wall_s", wall, "s", f"calibrated median of {n} passes; {_tail_note(passes)}")
    print_metric(
        "work_per_s", metrics["work_per_s"], "1/s",
        f"{per_s}: {work:g} {workload.work_unit} per pass / wall_s",
    )
    print_metric("setup_s", metrics["setup_s"], "s", f"calibrated median of {len(setup)} fresh interpreters")
    print_metric("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process")
    print_metric(
        "fail_frac", loop.failed / loop.attempted, "ratio", f"{loop.failed} of {loop.attempted} operations"
    )
    raw = statistics.median(timings.raw)
    print(
        f"# raw host time: wall_s median {raw:.6g} s of {n} passes, {_tail_note(timings.raw)};"
        f" {per_s} {work / raw:.6g}; calibration loop median"
        f" {statistics.median(timings.loops):.6g} s (reference {calibration.REFERENCE_S} s)"
    )
    print("# raw pass durations s: " + " ".join(f"{d:.4f}" for d in timings.raw))
    return metrics


def run_traced(loop: Loop, workload, seconds: float, caplora) -> dict[str, float]:
    from tracer import COUNT_METRICS, Tracer

    untraced = loop.timed(seconds / 3, min_passes=1).raw
    tracer = Tracer(caplora)
    tracer.install()
    per_pass: list[dict[str, float]] = []

    def start() -> None:
        tracer.reset()
        tracer.pass_index = len(per_pass) + 1

    def collect() -> list[str]:
        per_pass.append(tracer.pass_metrics())
        problems = list(tracer.problems)
        first, last = per_pass[0], per_pass[-1]
        moved = [name for name in COUNT_METRICS if first[name] != last[name]]
        if moved:
            problems.append(f"traced counts differ between passes: {moved}")
        start()
        return problems

    start()
    traced = loop.timed(seconds - sum(untraced), min_passes=2, after_pass=collect).raw
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    for name, value in metrics.items():
        print_metric(name, value, _unit(name))
    print(
        f"# traced {len(traced)} passes, untraced {len(untraced)};"
        f" harvester.next_change_s is {metrics['harvester.next_change_s'] / metrics['trace.wall_s']:.1%}"
        " of traced wall time"
    )
    for name, span in tracer.span_summary().items():
        print(f"# span {name}: {span['count']} spans, median {span['median_s']:.6g} s")
    RESULTS_DIR.mkdir(exist_ok=True)
    spans_path = RESULTS_DIR / f"{workload.name}-s{workload.seed}-spans.json"
    spans_path.write_text(
        json.dumps({"dropped": tracer.spans_dropped, "spans": tracer.spans_json()}) + "\n"
    )
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: for the self-test only"
    )
    parser.add_argument(
        "--pin-reference",
        action="store_true",
        help=f"rewrite bench/reference/<workload>.json from seed {DEFAULT_SEED}",
    )
    args = parser.parse_args()
    if args.pin_reference and (args.seed != DEFAULT_SEED or args.size != "full"):
        parser.error(f"--pin-reference needs --seed {DEFAULT_SEED} and --size full")

    caplora = load_caplora()
    lines, sloc = source_lines()
    print(f"# caplora benchmark: workload={args.workload} seed={args.seed} trace={args.trace}"
          f" size={args.size} seconds={args.seconds:g}")
    print(f"# python={platform.python_version()} cpu_count={os.cpu_count()}"
          f" git={git_revision()} caplora_lines={lines} caplora_sloc={sloc}")

    workdir = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](caplora, workdir, args.seed, args.size == "tiny")
        workload.prepare()
        for name, path in workload.inputs.items():
            print(f"# input {name} sha256={hashlib.sha256(path.read_bytes()).hexdigest()}")
        loop = Loop(workload)
        output = loop.first()
        if output is not None:
            for name, digest in sorted(output.digests.items()):
                print(f"# output {name} sha256={digest}")
            if args.seed == DEFAULT_SEED and args.size == "full" and loop.failed == 0:
                problems = reference_check(workload, output, args.pin_reference)
                if problems:
                    loop.fail(problems)
        if args.trace:
            metrics = run_traced(loop, workload, args.seconds, caplora)
            units = {name: _unit(name) for name in metrics}
        else:
            metrics = run_untraced(loop, workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in loop.problems:
        print(f"# FAILED: {problem}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
