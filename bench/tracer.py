"""Traced runs: per-layer counts and times gathered from outside the program.

``Tracer.install`` replaces every public function of each caplora module,
in every module namespace that binds it, and every public method of the
classes those modules define, with a wrapper that aggregates calls,
inclusive time and self time (inclusive minus time in wrapped callees).
Coarse boundaries also record spans. The engine's heap calls go through a
probe that counts dispatched and cancelled events and the peak heap size.
Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import enum
import functools
import heapq
import inspect
import statistics
import time
from typing import Any

from workloads import OUTCOMES, open_cycle, outcome_counts

LAYERS = ("cli", "config", "analysis", "engine", "energy", "device", "lorawan", "harvester")

# Coarse boundaries that record one span per call.
SPANS = {
    "cli.main",
    "analysis.run_sweep",
    "engine.Simulator.run",
    "analysis.min_capacitance",
    "analysis.min_capacitance_for_target",
}

# Keeps memory bounded on long traced runs; later spans are only counted.
MAX_SPANS = 100_000

# Time-varying sources; ConstantHarvester.next_change_after is a constant None.
NEXT_CHANGE = ("harvester.TraceHarvester.next_change_after", "harvester.RandomHarvester.next_change_after")
POWER_AT = (
    "harvester.ConstantHarvester.power_at",
    "harvester.TraceHarvester.power_at",
    "harvester.RandomHarvester.power_at",
)

# Per-layer metrics that are counts: they must repeat exactly between passes.
COUNT_METRICS = (
    "engine.events_dispatched",
    "engine.events_cancelled",
    "engine.peak_heap",
    "energy.update_calls",
    "energy.propagate_calls",
    "energy.crossing_calls",
    "energy.load_energy_calls",
    "energy.equivalent_resistance_calls",
    "energy.trace_records",
    "harvester.next_change_calls",
    "harvester.power_at_calls",
    "device.guard_calls",
    "device.depletions",
    "device.recharges",
    *(f"device.outcome.{name}" for name in OUTCOMES),
    "lorawan.time_on_air_calls",
    "lorawan.budget_register_calls",
    "analysis.points_run",
    "analysis.bisection_probes",
    "analysis.target_probes",
)


class Tracer:
    def __init__(self, caplora) -> None:
        self.caplora = caplora
        self.modules = {layer: getattr(caplora, layer) for layer in LAYERS}
        self.stats: dict[str, list[int]] = {}
        # Accumulators of wrapped-callee time, one per open wrapped call;
        # the bottom entry collects time of top-level calls.
        self._stack: list[int] = [0]
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_span = 0
        self._open_spans: list[int] = []
        self._open_names: list[str] = []
        self._sims: list[int] = []  # duration_ns of the running simulations
        self.pass_index = 0
        self.reset()

    # -- per-pass counters ---------------------------------------------------

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        self.events_dispatched = 0
        self.events_cancelled = 0
        self.peak_heap = 0
        self.sim_s = 0.0
        self.outcomes = dict.fromkeys(OUTCOMES, 0)
        self.guard_vetoes = 0
        self.points_run = 0
        self.target_probes = 0
        self._call_probe_ns: list[int] = []
        self.slowest_probe_shares: list[float] = []
        self.problems: list[str] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        namespaces = [self.caplora, *self.modules.values()]
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    for ns in namespaces:
                        if vars(ns).get(name) is obj:
                            setattr(ns, name, wrapper)
                elif inspect.isclass(obj) and not self._skip_class(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, attr, self._wrap(f"{layer}.{name}.{attr}", fn))
        self.modules["engine"].heapq = _HeapProbe(self)

    @staticmethod
    def _skip_class(cls: type) -> bool:
        return (
            issubclass(cls, (enum.Enum, BaseException))
            or getattr(cls, "_is_protocol", False)
        )

    def _wrap(self, qualname: str, fn):
        stat = self.stats.setdefault(qualname, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        before = getattr(self, "_before_" + qualname.replace(".", "_"), None)
        after = getattr(self, "_after_" + qualname.replace(".", "_"), None)
        if qualname in SPANS or before or after:
            return self._wrap_hooked(qualname, fn, stat, before, after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                stack[-1] += dt

        return wrapper

    def _wrap_hooked(self, qualname, fn, stat, before, after):
        stack = self._stack
        clock = time.perf_counter_ns
        is_span = qualname in SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(args)
            span = self._open_span(qualname) if is_span else None
            result = None  # what ``after`` sees when the call raised
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                stack[-1] += dt
                if is_span:
                    self._close_span(span, t0, t1)
                if after:
                    after(args, result, dt)

        return wrapper

    def _open_span(self, name: str) -> int:
        span_id = self._next_span
        self._next_span += 1
        self._open_spans.append(span_id)
        self._open_names.append(name)
        return span_id

    def _close_span(self, span_id: int, t0: int, t1: int) -> None:
        self._open_spans.pop()
        name = self._open_names.pop()
        parent = self._open_spans[-1] if self._open_spans else None
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self.pass_index, name, t0, t1))
        else:
            self.spans_dropped += 1

    # -- hooks, looked up by qualified name -----------------------------------

    def _before_engine_Simulator_run(self, args) -> None:
        sim = args[0]
        self._sims.append(round(sim.config.duration_s * 1_000_000_000))

    def _after_engine_Simulator_run(self, args, metrics, dt) -> None:
        sim = args[0]
        self._sims.pop()
        if metrics is None:
            return
        self.sim_s += sim.config.duration_s
        counts = outcome_counts(metrics)
        for name, n in counts.items():
            self.outcomes[name] += n
        if sum(counts.values()) + open_cycle(sim) != metrics.generated:
            self.problems.append(
                f"run at C={sim.config.capacitance_f}: outcomes {counts} do not sum"
                f" to generated={metrics.generated}"
            )
        if metrics.acked > metrics.delivered_ul:
            self.problems.append(f"run at C={sim.config.capacitance_f}: acked > delivered")

    def _after_device_smart_tx_guard(self, args, proceed, dt) -> None:
        if proceed is False:
            self.guard_vetoes += 1

    def _after_engine_run_scenario(self, args, metrics, dt) -> None:
        if "analysis.run_sweep" in self._open_names:
            self.points_run += 1
        if "analysis.min_capacitance_for_target" in self._open_names:
            self.target_probes += 1
            self._call_probe_ns.append(dt)

    def _before_analysis_min_capacitance_for_target(self, args) -> None:
        self._call_probe_ns = []

    def _after_analysis_min_capacitance_for_target(self, args, answer, dt) -> None:
        if self._call_probe_ns and dt:
            self.slowest_probe_shares.append(max(self._call_probe_ns) / dt)

    # -- results ---------------------------------------------------------------

    def _calls(self, *names: str) -> int:
        return sum(self.stats[name][0] for name in names if name in self.stats)

    def _incl_ns(self, *names: str) -> int:
        return sum(self.stats[name][1] for name in names if name in self.stats)

    def _per_call(self, name: str, scale: float) -> float:
        calls = self._calls(name)
        return self._incl_ns(name) / calls * scale if calls else 0.0

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass since the last ``reset``."""
        ns = 1e-9
        dispatched = self.events_dispatched
        run_s = self._incl_ns("engine.Simulator.run") * ns
        guard_calls = self._calls("device.smart_tx_guard")
        shares = self.slowest_probe_shares
        m: dict[str, float] = {
            "engine.events_dispatched": dispatched,
            "engine.events_per_sim_h": dispatched / (self.sim_s / 3600) if self.sim_s else 0.0,
            "engine.events_cancelled": self.events_cancelled,
            "engine.cancelled_ratio": self.events_cancelled / dispatched if dispatched else 0.0,
            "engine.peak_heap": self.peak_heap,
            "engine.us_per_event": run_s / dispatched * 1e6 if dispatched else 0.0,
            "engine.run_s": run_s,
            "energy.update_calls": self._calls("energy.Capacitor.update"),
            "energy.update_ns_per_call": self._per_call("energy.Capacitor.update", 1),
            "energy.propagate_calls": self._calls("energy.propagate_voltage"),
            "energy.propagate_ns_per_call": self._per_call("energy.propagate_voltage", 1),
            "energy.crossing_calls": self._calls("energy.crossing_time"),
            "energy.crossing_ns_per_call": self._per_call("energy.crossing_time", 1),
            "energy.load_energy_calls": self._calls("energy.load_energy_joules"),
            "energy.load_energy_ns_per_call": self._per_call("energy.load_energy_joules", 1),
            "energy.equivalent_resistance_calls": self._calls("energy.equivalent_resistance"),
            "energy.trace_records": self._calls("energy.TraceRecorder.record"),
            "energy.write_csv_s": self._incl_ns("energy.TraceRecorder.write_csv") * ns,
            "harvester.next_change_calls": self._calls(*NEXT_CHANGE),
            "harvester.next_change_s": self._incl_ns(*NEXT_CHANGE) * ns,
            "harvester.power_at_calls": self._calls(*POWER_AT),
            "harvester.load_trace_ms": self._per_call("harvester.load_trace", 1e-6),
            "device.guard_calls": guard_calls,
            "device.guard_us_per_call": self._per_call("device.smart_tx_guard", 1e-3),
            "device.guard_veto_ratio": self.guard_vetoes / guard_calls if guard_calls else 0.0,
            "device.depletions": self._calls("device.LorawanDevice.on_depleted"),
            "device.recharges": self._calls("device.LorawanDevice.on_recharged"),
            **{f"device.outcome.{name}": n for name, n in self.outcomes.items()},
            "lorawan.time_on_air_calls": self._calls("lorawan.time_on_air"),
            "lorawan.time_on_air_ns_per_call": self._per_call("lorawan.time_on_air", 1),
            "lorawan.budget_register_calls": self._calls("lorawan.DutyCycleBudget.register"),
            "analysis.sweep_self_s": (
                self.stats["analysis.run_sweep"][2] * ns if "analysis.run_sweep" in self.stats else 0.0
            ),
            "analysis.points_run": self.points_run,
            "analysis.min_capacitance_ms_per_call": self._per_call("analysis.min_capacitance", 1e-6),
            "analysis.bisection_probes": self._calls("analysis.min_voltage_over_cycle"),
            "analysis.target_probes": self.target_probes,
            # Per sizing call, the slowest engine probe over the whole call.
            "analysis.slowest_probe_share": statistics.median(shares) if shares else 0.0,
            "config.parse_config_ms": self._per_call("config.parse_config", 1e-6),
            "cli.main_s": self._per_call("cli.main", 1e-9),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = ns * sum(
                stat[2] for name, stat in self.stats.items() if name.startswith(layer + ".")
            )
        return m

    def span_summary(self) -> dict[str, dict[str, float]]:
        by_name: dict[str, list[int]] = {}
        for _, _, _, name, t0, t1 in self.spans:
            by_name.setdefault(name, []).append(t1 - t0)
        return {
            name: {"count": len(d), "median_s": statistics.median(d) * 1e-9, "total_s": sum(d) * 1e-9}
            for name, d in sorted(by_name.items())
        }

    def spans_json(self) -> list[dict[str, Any]]:
        return [
            {"id": i, "parent": p, "pass": k, "name": n, "start_ns": t0, "end_ns": t1}
            for i, p, k, n, t0, t1 in self.spans
        ]


class _HeapProbe:
    """Stands in for ``heapq`` inside ``caplora.engine``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(heapq, name)

    def heappush(self, heap, item) -> None:
        heapq.heappush(heap, item)
        tracer = self._tracer
        if len(heap) > tracer.peak_heap:
            tracer.peak_heap = len(heap)

    def heappop(self, heap):
        item = heapq.heappop(heap)
        tracer = self._tracer
        time_ns = item[0] if type(item) is tuple else item.time_ns
        # The pop that reaches the run's horizon ends the loop undispatched.
        if tracer._sims and time_ns < tracer._sims[-1]:
            tracer.events_dispatched += 1
            if getattr(item, "cancelled", False):
                tracer.events_cancelled += 1
        return item
