"""The four benchmark workloads: seeded inputs, one pass, and output checks.

Every workload writes its inputs (INI scenario files and, for the trace
workload, a harvest trace CSV) from the seed alone; the program under test
only ever sees those files. A pass is one user-level operation run
in-process through a public entry point (``caplora.cli.main`` or
``caplora.analysis``). ``check`` inspects the outputs of one pass by
content; ``verify`` re-derives a sample of them through the Python API.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

DEFAULT_SEED = 1

# Tolerances for the pinned-reference comparison. Integers (counts, grid
# keys) must match exactly; floats are printed rounded by the program.
PSUCC_ABS_TOL = 1e-6  # psucc columns are printed with 6 decimals
VOLTAGE_ABS_TOL = 1e-6  # volts; trace voltages are printed with 9 decimals
CAPACITANCE_REL_TOL = 1e-5  # mincap prints 6 significant digits

OUTCOMES = (
    "delivered",
    "acked",
    "failed_energy",
    "skipped_guard",
    "failed_duty_cycle",
    "failed_busy",
)


class PassError(RuntimeError):
    """One pass raised, exited non-zero, or produced unreadable output."""


@dataclass
class PassOutput:
    """What one pass produced: a digest of every output and the raw text."""

    digests: dict[str, str]
    files: dict[str, str] = field(default_factory=dict)
    value: object = None

    def digest(self) -> str:
        joined = "".join(f"{k}={v};" for k, v in sorted(self.digests.items()))
        return hashlib.sha256(joined.encode()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(caplora, argv: list[str]) -> str:
    """Call ``caplora.cli.main`` in-process; return its stdout or raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = caplora.cli.main(argv)
    if code != 0:
        raise PassError(f"caplora {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def read_rows(text: str) -> list[dict[str, str]]:
    """CSV rows keyed by header name, so added columns are ignored."""
    return list(csv.DictReader(io.StringIO(text)))


def open_cycle(sim) -> int:
    """1 when the run ended with a packet cycle still in progress."""
    return 0 if sim.device.cycle is None else 1


def outcome_counts(metrics) -> dict[str, int]:
    counts = dict.fromkeys(OUTCOMES, 0)
    for record in metrics.cycles:
        counts[str(record.outcome)] += 1
    return counts


def outcome_problems(label: str, sim, metrics) -> list[str]:
    """Per-run invariants: outcomes account for every packet, acks <= uplinks."""
    counts = outcome_counts(metrics)
    problems = []
    if sum(counts.values()) + open_cycle(sim) != metrics.generated:
        problems.append(
            f"{label}: outcomes {counts} (+{open_cycle(sim)} open) "
            f"do not sum to generated={metrics.generated}"
        )
    if metrics.acked > metrics.delivered_ul:
        problems.append(f"{label}: acked {metrics.acked} > delivered {metrics.delivered_ul}")
    if counts["acked"] != metrics.acked:
        problems.append(f"{label}: {counts['acked']} acked outcomes, metrics say {metrics.acked}")
    return problems


def results_problems(label: str, row: dict[str, str]) -> list[str]:
    """Invariants of one results.csv / sweep.csv row, read by header name."""
    try:
        generated = int(row["generated"])
        delivered = int(row["delivered"])
        acked = int(row["acked"])
        psucc_ul = float(row["psucc_ul"])
        psucc_uldl = float(row["psucc_uldl"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{label}: unreadable results row {row!r}: {exc}"]
    problems = []
    if generated <= 0:
        problems.append(f"{label}: generated={generated}")
        return problems
    if not 0 <= acked <= delivered <= generated:
        problems.append(f"{label}: need 0 <= acked <= delivered <= generated, got {row}")
    if abs(psucc_ul - delivered / generated) > PSUCC_ABS_TOL:
        problems.append(f"{label}: psucc_ul {psucc_ul} != {delivered}/{generated}")
    if abs(psucc_uldl - acked / generated) > PSUCC_ABS_TOL:
        problems.append(f"{label}: psucc_uldl {psucc_uldl} != {acked}/{generated}")
    if row.get("confirmed") == "0" and acked != 0:
        problems.append(f"{label}: unconfirmed traffic with {acked} acks")
    return problems


def compare_results(label: str, got: dict, want: dict) -> list[str]:
    problems = []
    for name in ("generated", "delivered", "acked"):
        if int(got[name]) != int(want[name]):
            problems.append(f"{label}: {name} {got[name]} != reference {want[name]}")
    for name in ("psucc_ul", "psucc_uldl"):
        if abs(float(got[name]) - float(want[name])) > PSUCC_ABS_TOL:
            problems.append(f"{label}: {name} {got[name]} != reference {want[name]}")
    return problems


def _results_fields(row: dict[str, str]) -> dict:
    return {
        "generated": int(row["generated"]),
        "delivered": int(row["delivered"]),
        "acked": int(row["acked"]),
        "psucc_ul": float(row["psucc_ul"]),
        "psucc_uldl": float(row["psucc_uldl"]),
    }


def _results_key(row: dict[str, str]) -> str:
    return ",".join(
        row[name] for name in ("C_farads", "P_harvest_W", "data_rate", "period_s", "confirmed")
    )


def _distinct(rng: random.Random, count: int, draw) -> list[str]:
    """``count`` distinct values formatted by ``draw``, in sorted order."""
    values: set[str] = set()
    while len(values) < count:
        values.add(draw(rng))
    return sorted(values, key=float)


class Workload:
    """Base class: subclasses generate inputs and run one pass."""

    name = ""
    why = ""
    #: Unit of the throughput metric for this workload.
    work_unit = ""

    def __init__(self, caplora, workdir: Path, seed: int, tiny: bool) -> None:
        self.caplora = caplora
        self.workdir = workdir
        self.seed = seed
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs: dict[str, Path] = {}

    def write_input(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text)
        self.inputs[name] = path
        return path

    @property
    def ini(self) -> Path:
        return self.inputs["scenario.ini"]

    def setup_code(self) -> str:
        """Statements the set-up timing runs after ``import caplora``."""
        return (
            "from caplora.config import parse_config\n"
            f"parse_config({str(self.ini)!r})\n"
        )

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassOutput:
        raise NotImplementedError

    def first_pass(self) -> PassOutput:
        """The untimed warm-up pass whose outputs are checked in full."""
        return self.run_pass()

    def work(self) -> float:
        """Work units one pass performs (simulated hours, or rows)."""
        raise NotImplementedError

    def check(self, output: PassOutput) -> list[str]:
        """Content invariants of one pass's outputs, valid for any seed."""
        raise NotImplementedError

    def verify(self, output: PassOutput) -> list[str]:
        """Re-derive a sample of the outputs through the Python API."""
        return []

    def summary(self, output: PassOutput) -> dict:
        """The part of the outputs pinned in the reference file."""
        raise NotImplementedError

    def compare(self, got: dict, want: dict) -> list[str]:
        raise NotImplementedError


class SweepSteady(Workload):
    name = "sweep_steady"
    why = (
        "caplora sweep over healthy capacitance x power x kind points; idle "
        "ticks and Capacitor.update dominate, few stale crossings"
    )
    work_unit = "sim_h"

    def prepare(self) -> None:
        n_caps, n_powers = (1, 1) if self.tiny else (3, 2)
        self.duration_s = 600.0 if self.tiny else 7200.0
        self.caps = _distinct(self.rng, n_caps, lambda r: f"{r.uniform(0.005, 0.0075):.4g}")
        self.powers = _distinct(self.rng, n_powers, lambda r: f"{r.uniform(0.002, 0.004):.4g}")
        self.kinds = ("UL", "UL+DL")
        self.write_input(
            "scenario.ini",
            "[capacitor]\nupdate_interval_s = 1\n"
            f"[sim]\nduration_s = {self.duration_s:g}\nguard = true\n"
            f"seed = {self.rng.randint(1, 10**6)}\n"
            f"[sweep]\ncapacitance_f = {', '.join(self.caps)}\n"
            f"power_w = {', '.join(self.powers)}\n"
            f"kind = {', '.join(self.kinds)}\n",
        )
        self.out = self.workdir / "out"

    def expected_keys(self) -> list[str]:
        return [
            f"{float(c):.9g},{float(p):.9g},3,60,{int(kind == 'UL+DL')}"
            for kind in self.kinds
            for p in self.powers
            for c in self.caps
        ]

    def run_pass(self) -> PassOutput:
        run_cli(self.caplora, ["sweep", "--config", str(self.ini), "--out", str(self.out), "--fresh"])
        text = (self.out / "sweep.csv").read_text()
        return PassOutput({"sweep.csv": sha256_text(text)}, {"sweep.csv": text})

    def work(self) -> float:
        return len(self.expected_keys()) * self.duration_s / 3600.0

    def check(self, output: PassOutput) -> list[str]:
        rows = read_rows(output.files["sweep.csv"])
        keys = [_results_key(row) for row in rows]
        problems = []
        if sorted(keys) != sorted(self.expected_keys()):
            problems.append(f"sweep keys {keys} != grid {self.expected_keys()}")
        for key, row in zip(keys, rows):
            problems += results_problems(f"sweep point {key}", row)
        return problems

    def verify(self, output: PassOutput) -> list[str]:
        caplora = self.caplora
        config, grid = caplora.config.parse_config(self.ini)
        configs = caplora.analysis.expand_grid(grid, config)
        rows = {_results_key(row): row for row in read_rows(output.files["sweep.csv"])}
        problems = []
        for cfg in (configs[0], configs[-1]):
            sim = caplora.engine.Simulator(cfg)
            metrics = sim.run()
            api_row = dict(
                zip(
                    caplora.engine.RESULTS_HEADER.split(","),
                    caplora.engine.results_row(cfg, metrics).split(","),
                )
            )
            key = _results_key(api_row)
            if key not in rows:
                problems.append(f"API point {key} missing from sweep.csv")
                continue
            problems += compare_results(f"API rerun of {key}", rows[key], api_row)
            problems += outcome_problems(f"API rerun of {key}", sim, metrics)
        return problems

    def summary(self, output: PassOutput) -> dict:
        rows = read_rows(output.files["sweep.csv"])
        return {"rows": {_results_key(row): _results_fields(row) for row in rows}}

    def compare(self, got: dict, want: dict) -> list[str]:
        if sorted(got["rows"]) != sorted(want["rows"]):
            return [f"sweep keys {sorted(got['rows'])} != reference {sorted(want['rows'])}"]
        problems = []
        for key, row in want["rows"].items():
            problems += compare_results(f"sweep point {key}", got["rows"][key], row)
        return problems


class SizingBrownout(Workload):
    name = "sizing_brownout"
    why = (
        "engine bisection for the smallest capacitor at weak harvest, guard "
        "off; low probes brown out hundreds of times"
    )
    work_unit = "sim_h"

    TARGET = 0.9
    C_LO_F = 3e-4
    C_HI_F = 0.1
    TOL_REL = 0.02
    #: One sizing question per traffic phase; the design must meet the target
    #: whatever the phase, so the answer is the largest capacitance found.
    PHASES = 4

    def prepare(self) -> None:
        self.duration_s = 300.0 if self.tiny else 600.0
        # The seed draws the traffic phases only. How many stale crossings
        # the low probe piles up swings by 2x with a 1% change of power, so
        # a pass sums several phases to keep its cost steady across seeds.
        for k in range(1, self.PHASES + 1):
            self.write_input(
                f"scenario-{k}.ini",
                "[harvester]\npower_w = 0.0005\n"
                "[lorawan]\nconfirmed = true\n"
                f"[sim]\nduration_s = {self.duration_s:g}\nguard = false\n"
                f"seed = {self.rng.randint(1, 10**6)}\n",
            )
        self.probes = 0

    def setup_code(self) -> str:
        return "from caplora.config import parse_config\n" + "".join(
            f"parse_config({str(path)!r})\n" for path in self.inputs.values()
        )

    def run_pass(self) -> PassOutput:
        caplora = self.caplora
        answers = []
        for path in self.inputs.values():
            config, _ = caplora.config.parse_config(path)
            answers.append(
                caplora.analysis.min_capacitance_for_target(
                    config,
                    "UL+DL",
                    target=self.TARGET,
                    c_lo=self.C_LO_F,
                    c_hi=self.C_HI_F,
                    tol_rel=self.TOL_REL,
                )
            )
        return PassOutput({"answers": sha256_text(repr(answers))}, value=answers)

    def work(self) -> float:
        return self.probes * self.duration_s / 3600.0

    def first_pass(self) -> PassOutput:
        """Also counts the engine runs a pass makes; the count is deterministic."""
        analysis = self.caplora.analysis
        real = analysis.run_scenario

        def counting(config):
            self.probes += 1
            return real(config)

        analysis.run_scenario = counting
        try:
            return self.run_pass()
        finally:
            analysis.run_scenario = real

    def _at(self, path: Path, capacitance_f: float):
        caplora = self.caplora
        config, _ = caplora.config.parse_config(path)
        cfg = replace(config, capacitance_f=capacitance_f, confirmed=True, harvester="constant")
        sim = caplora.engine.Simulator(cfg)
        return sim, sim.run()

    def check(self, output: PassOutput) -> list[str]:
        problems = []
        for path, answer in zip(self.inputs, output.value):
            if answer is None:
                problems.append(f"{path}: no capacitance up to {self.C_HI_F} F reaches psucc {self.TARGET}")
            elif not self.C_LO_F < answer <= self.C_HI_F:
                problems.append(f"{path}: answer {answer} F outside ({self.C_LO_F}, {self.C_HI_F}]")
        return problems

    def verify(self, output: PassOutput) -> list[str]:
        problems = []
        for (name, path), answer in zip(self.inputs.items(), output.value):
            sim, metrics = self._at(path, answer)
            problems += outcome_problems(f"{name} at {answer:.6g} F", sim, metrics)
            if metrics.acked / metrics.generated < self.TARGET:
                problems.append(
                    f"{name}: {answer:.6g} F reaches psucc {metrics.acked}/{metrics.generated}"
                    f" < target {self.TARGET}"
                )
        return problems

    def summary(self, output: PassOutput) -> dict:
        phases = {}
        for (name, path), answer in zip(self.inputs.items(), output.value):
            sim, metrics = self._at(path, answer)
            phases[name] = {
                "answer_f": answer,
                "generated": metrics.generated,
                "delivered": metrics.delivered_ul,
                "acked": metrics.acked,
                "outcomes": outcome_counts(metrics),
            }
        return {"phases": phases}

    def compare(self, got: dict, want: dict) -> list[str]:
        problems = []
        for name, ref in want["phases"].items():
            mine = dict(got["phases"][name])
            if not math.isclose(mine.pop("answer_f"), ref["answer_f"], rel_tol=CAPACITANCE_REL_TOL):
                problems.append(f"{name}: answer {got['phases'][name]['answer_f']} F != reference {ref['answer_f']} F")
            if mine != {k: v for k, v in ref.items() if k != "answer_f"}:
                problems.append(f"{name}: run at the answer {mine} != reference {ref}")
        return problems


class TraceHarvest(Workload):
    name = "trace_harvest"
    why = (
        "caplora trace on a seeded on/off harvest trace of 1 s samples; trace "
        "scans, harvest events and trace output dominate"
    )
    work_unit = "sim_h"

    def prepare(self) -> None:
        self.duration_s = 600.0 if self.tiny else 7200.0
        rng = self.rng
        lines = ["time_s,power_w"]
        t, on = 0, True
        end = int(self.duration_s) + 60
        while t <= end:
            span = rng.randint(120, 900) if on else rng.randint(60, 600)
            power = f"{rng.uniform(0.002, 0.006):.4g}" if on else "0"
            for _ in range(span):
                if t > end:
                    break
                lines.append(f"{t},{power}")
                t += 1
            on = not on
        trace = self.write_input("harvest.csv", "\n".join(lines) + "\n")
        self.write_input(
            "scenario.ini",
            f"[capacitor]\ncapacitance_f = {0.01 * rng.uniform(0.95, 1.05):.4g}\n"
            f"[harvester]\nkind = trace\ntrace_file = {trace}\n"
            "[lorawan]\nconfirmed = true\n"
            f"[sim]\nduration_s = {self.duration_s:g}\nguard = true\n"
            f"guard_horizon = cycle\nseed = {rng.randint(1, 10**6)}\n",
        )
        self.out = self.workdir / "out"

    def setup_code(self) -> str:
        return super().setup_code() + (
            "from caplora.harvester import load_trace\n"
            f"load_trace({str(self.inputs['harvest.csv'])!r})\n"
        )

    def run_pass(self) -> PassOutput:
        run_cli(self.caplora, ["trace", "--config", str(self.ini), "--out", str(self.out)])
        files = {
            name: (self.out / name).read_text()
            for name in ("results.csv", "voltage_trace.csv")
        }
        return PassOutput({name: sha256_text(text) for name, text in files.items()}, files)

    def work(self) -> float:
        return self.duration_s / 3600.0

    def _trace_summary(self, output: PassOutput) -> dict:
        rows = read_rows(output.files["voltage_trace.csv"])
        volts = [float(row["voltage_V"]) for row in rows]
        states: dict[str, int] = {}
        for row in rows:
            states[row["state"]] = states.get(row["state"], 0) + 1
        return {
            "trace_rows": len(rows),
            "first_time_s": float(rows[0]["time_s"]) if rows else None,
            "last_time_s": float(rows[-1]["time_s"]) if rows else None,
            "final_v": volts[-1] if volts else None,
            "min_v": min(volts, default=None),
            "max_v": max(volts, default=None),
            "state_rows": dict(sorted(states.items())),
        }

    def check(self, output: PassOutput) -> list[str]:
        results = read_rows(output.files["results.csv"])
        if len(results) != 1:
            return [f"results.csv has {len(results)} rows, expected 1"]
        problems = results_problems("results.csv", results[0])
        rows = read_rows(output.files["voltage_trace.csv"])
        if not rows:
            return problems + ["voltage_trace.csv has no rows"]
        config, _ = self.caplora.config.parse_config(self.ini)
        known = {str(state) for state in self.caplora.lorawan.DeviceState}
        prev = -1.0
        for index, row in enumerate(rows):
            time_s, volts = float(row["time_s"]), float(row["voltage_V"])
            if time_s < prev:
                problems.append(f"trace row {index}: time {time_s} goes back from {prev}")
            if not 0.0 <= volts <= config.max_voltage_v + VOLTAGE_ABS_TOL:
                problems.append(f"trace row {index}: voltage {volts} out of range")
            if row["state"] not in known:
                problems.append(f"trace row {index}: unknown state {row['state']!r}")
            prev = time_s
            if len(problems) > 10:
                break
        summary = self._trace_summary(output)
        if summary["first_time_s"] != 0.0 or summary["last_time_s"] != self.duration_s:
            problems.append(
                f"trace spans {summary['first_time_s']}..{summary['last_time_s']} s,"
                f" run is 0..{self.duration_s} s"
            )
        return problems

    def verify(self, output: PassOutput) -> list[str]:
        caplora = self.caplora
        config, _ = caplora.config.parse_config(self.ini)
        cfg = replace(config, trace=True)
        sim = caplora.engine.Simulator(cfg)
        metrics = sim.run()
        api_row = dict(
            zip(
                caplora.engine.RESULTS_HEADER.split(","),
                caplora.engine.results_row(cfg, metrics).split(","),
            )
        )
        problems = compare_results("API rerun", read_rows(output.files["results.csv"])[0], api_row)
        problems += outcome_problems("API rerun", sim, metrics)
        n_rows = len(read_rows(output.files["voltage_trace.csv"]))
        if len(metrics.trace.records) != n_rows:
            problems.append(f"API rerun records {len(metrics.trace.records)} trace rows, CSV has {n_rows}")
        return problems

    def summary(self, output: PassOutput) -> dict:
        return {
            "results": _results_fields(read_rows(output.files["results.csv"])[0]),
            **self._trace_summary(output),
        }

    def compare(self, got: dict, want: dict) -> list[str]:
        problems = compare_results("results.csv", got["results"], want["results"])
        for name in ("trace_rows", "state_rows", "first_time_s", "last_time_s"):
            if got[name] != want[name]:
                problems.append(f"trace {name} {got[name]} != reference {want[name]}")
        for name in ("final_v", "min_v", "max_v"):
            if abs(got[name] - want[name]) > VOLTAGE_ABS_TOL:
                problems.append(f"trace {name} {got[name]} V != reference {want[name]} V")
        return problems


class MincapGrid(Workload):
    name = "mincap_grid"
    why = (
        "caplora mincap over a widened grid: closed-form energy kernel and "
        "time_on_air as pure calls, no engine"
    )
    work_unit = "rows"

    # mincap_table's default downlink payload for UL+DL cycles.
    DL_PAYLOAD_BYTES = 39

    def prepare(self) -> None:
        n_dr, n_payloads, n_powers = (2, 2, 2) if self.tiny else (6, 18, 6)
        self.data_rates = list(range(6))[:n_dr]
        self.payloads = sorted(self.rng.sample(range(5, 61), n_payloads))
        self.powers = _distinct(
            self.rng, n_powers, lambda r: f"{10 ** r.uniform(math.log10(2e-4), -2):.3g}"
        )
        self.kinds = ("UL", "UL+DL")
        self.write_input(
            "scenario.ini",
            f"[sweep]\ndata_rate = {', '.join(map(str, self.data_rates))}\n"
            f"payload_bytes = {', '.join(map(str, self.payloads))}\n"
            f"power_w = {', '.join(self.powers)}\n"
            f"kind = {', '.join(self.kinds)}\n",
        )
        self.out = self.workdir / "out"

    def expected_keys(self) -> list[str]:
        return [
            f"{dr},{payload},{float(power):.9g},{kind}"
            for dr in self.data_rates
            for payload in self.payloads
            for power in self.powers
            for kind in self.kinds
        ]

    def run_pass(self) -> PassOutput:
        run_cli(self.caplora, ["mincap", "--config", str(self.ini), "--out", str(self.out)])
        text = (self.out / "min_capacitance.csv").read_text()
        return PassOutput({"min_capacitance.csv": sha256_text(text)}, {"min_capacitance.csv": text})

    def work(self) -> float:
        return float(len(self.expected_keys()))

    @staticmethod
    def _key(row: dict[str, str]) -> str:
        return ",".join(row[name] for name in ("dr", "payload_bytes", "P_harvest_W", "kind"))

    def _rows(self, output: PassOutput) -> dict[str, str]:
        return {
            self._key(row): row["min_C_farads"]
            for row in read_rows(output.files["min_capacitance.csv"])
        }

    def check(self, output: PassOutput) -> list[str]:
        rows = read_rows(output.files["min_capacitance.csv"])
        keys = [self._key(row) for row in rows]
        if sorted(keys) != sorted(self.expected_keys()):
            return [f"mincap keys differ from the grid: {len(keys)} rows"]
        analysis = self.caplora.analysis
        config, _ = self.caplora.config.parse_config(self.ini)
        problems = []
        for row in rows:
            cell = row["min_C_farads"]
            if cell == analysis.INFEASIBLE_MARKER:
                continue
            c_min = float(cell)
            cfg = replace(
                config,
                data_rate=int(row["dr"]),
                ul_payload_bytes=int(row["payload_bytes"]),
                dl_payload_bytes=self.DL_PAYLOAD_BYTES,
            )
            spec = analysis.cycle_spec(cfg, row["kind"], float(row["P_harvest_W"]))
            # Bisection leaves the answer on the feasible side, within tol_rel
            # of an infeasible capacitance; allow for 6-digit printing.
            fits = analysis.min_voltage_over_cycle(c_min * (1 + 1e-5), spec, cfg)
            short = analysis.min_voltage_over_cycle(
                c_min / (1 + analysis.DEFAULT_TOL_REL) * (1 - 1e-5), spec, cfg
            )
            if fits < config.v_th_low_v or (
                c_min > analysis.DEFAULT_C_LO_F and short >= config.v_th_low_v
            ):
                problems.append(f"mincap {self._key(row)}: {cell} F is not the bisection boundary")
        return problems

    def summary(self, output: PassOutput) -> dict:
        return {"rows": self._rows(output)}

    def compare(self, got: dict, want: dict) -> list[str]:
        if sorted(got["rows"]) != sorted(want["rows"]):
            return ["mincap keys differ from the reference"]
        problems = []
        for key, cell in want["rows"].items():
            mine = got["rows"][key]
            if "infeasible" in (cell, mine):
                same = cell == mine
            else:
                same = math.isclose(float(mine), float(cell), rel_tol=CAPACITANCE_REL_TOL)
            if not same:
                problems.append(f"mincap {key}: {mine} != reference {cell}")
        return problems


WORKLOADS = {cls.name: cls for cls in (SweepSteady, SizingBrownout, TraceHarvest, MincapGrid)}
