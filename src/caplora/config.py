"""Scenario files: flat INI with sections, parsed with every violation
reported at once, plus command-line overrides and round-trip dumping."""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import IO, Any, Callable

from .analysis import SweepGrid
from .engine import ScenarioConfig, validate_scenario
from .errors import ConfigError


def _parse_float(text: str) -> float:
    return float(text)


def _parse_int(text: str) -> int:
    return int(text)


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_opt_float(text: str) -> float | None:
    if text.strip().lower() in ("", "none"):
        return None
    return float(text)


def _parse_opt_int(text: str) -> int | None:
    if text.strip().lower() in ("", "none"):
        return None
    return int(text)


def _parse_opt_str(text: str) -> str | None:
    stripped = text.strip()
    return None if stripped.lower() in ("", "none") else stripped


def _list_of(parse: Callable[[str], Any]) -> Callable[[str], tuple]:
    def parser(text: str) -> tuple:
        items = [piece.strip() for piece in text.split(",")]
        return tuple(parse(piece) for piece in items if piece)

    return parser


# section -> key -> (dataclass field, value parser); [sweep] keys target
# SweepGrid, every other section targets ScenarioConfig.
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], Any]]]] = {
    "capacitor": {
        "capacitance_f": ("capacitance_f", _parse_float),
        "rail_voltage_v": ("rail_voltage_v", _parse_float),
        "max_voltage_v": ("max_voltage_v", _parse_float),
        "v_th_low_v": ("v_th_low_v", _parse_float),
        "v_th_high_v": ("v_th_high_v", _parse_float),
        "initial_voltage_v": ("initial_voltage_v", _parse_float),
        "update_interval_s": ("update_interval_s", _parse_float),
    },
    "harvester": {
        "kind": ("harvester", _parse_str),
        "power_w": ("power_w", _parse_float),
        "trace_file": ("trace_file", _parse_opt_str),
        "distribution": ("distribution", _parse_str),
        "low_w": ("low_w", _parse_float),
        "high_w": ("high_w", _parse_float),
        "mean_w": ("mean_w", _parse_float),
        "update_period_s": ("harvest_update_period_s", _parse_float),
    },
    "lorawan": {
        "data_rate": ("data_rate", _parse_int),
        "bandwidth_hz": ("bandwidth_hz", _parse_float),
        "confirmed": ("confirmed", _parse_bool),
        "ul_payload_bytes": ("ul_payload_bytes", _parse_int),
        "dl_payload_bytes": ("dl_payload_bytes", _parse_int),
        "mac_overhead_bytes": ("mac_overhead_bytes", _parse_int),
        "rx1_delay_s": ("rx1_delay_s", _parse_float),
        "rx2_delay_s": ("rx2_delay_s", _parse_float),
        "rx_window_symbols": ("rx_window_symbols", _parse_int),
        "rx2_window_symbols": ("rx2_window_symbols", _parse_opt_int),
        "turn_on_s": ("turn_on_s", _parse_float),
        "standby_brief_s": ("standby_brief_s", _parse_float),
        "max_transmissions": ("max_transmissions", _parse_int),
        "ul_duty_cycle": ("ul_duty_cycle", _parse_float),
        "dl_duty_cycle": ("dl_duty_cycle", _parse_float),
    },
    "currents": {
        "off_a": ("off_a", _parse_float),
        "turn_on_a": ("turn_on_a", _parse_float),
        "sleep_a": ("sleep_a", _parse_float),
        "tx_a": ("tx_a", _parse_float),
        "idle_a": ("idle_a", _parse_float),
        "standby_a": ("standby_a", _parse_float),
        "rx_a": ("rx_a", _parse_float),
    },
    "traffic": {
        "packet_period_s": ("packet_period_s", _parse_float),
        "first_packet_s": ("first_packet_s", _parse_opt_float),
        "generate_while_off": ("generate_while_off", _parse_bool),
    },
    "sim": {
        "duration_s": ("duration_s", _parse_float),
        "seed": ("seed", _parse_int),
        "guard": ("guard_enabled", _parse_bool),
        "guard_horizon": ("guard_horizon", _parse_str),
        "trace": ("trace", _parse_bool),
    },
    "sweep": {
        "capacitance_f": ("capacitances_f", _list_of(_parse_float)),
        "power_w": ("powers_w", _list_of(_parse_float)),
        "data_rate": ("data_rates", _list_of(_parse_int)),
        "payload_bytes": ("payloads_bytes", _list_of(_parse_int)),
        "period_s": ("periods_s", _list_of(_parse_float)),
        "kind": ("kinds", _list_of(_parse_str)),
    },
}


def _locate_key(key: str) -> tuple[str, str]:
    """Resolve a bare or section-qualified override key against the schema."""
    if "." in key:
        section, _, name = key.partition(".")
        if section in _SCHEMA and name in _SCHEMA[section]:
            return section, name
        raise ValueError(f"unknown config key {key!r}")
    matches = [
        (section, name)
        for section, keys in _SCHEMA.items()
        for name in keys
        if name == key
    ]
    if not matches:
        raise ValueError(f"unknown config key {key!r}")
    if len(matches) > 1:
        sections = ", ".join(sorted(section for section, _ in matches))
        raise ValueError(f"key {key!r} appears in sections {sections}; qualify it")
    return matches[0]


def parse_config(
    source: str | Path | IO[str] | None = None,
    overrides: list[str] | tuple[str, ...] = (),
) -> tuple[ScenarioConfig, SweepGrid]:
    """Read a scenario, apply ``key=value`` overrides, validate everything.

    An absent or empty source yields the default scenario. All problems,
    syntactic and semantic, are raised together as one ConfigError.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";", "#")
    )
    if source is not None:
        if hasattr(source, "read"):
            parser.read_file(source)
        else:
            path = Path(source)
            if not path.is_file():
                raise ConfigError([f"config file not found: {path}"])
            with path.open() as handle:
                try:
                    parser.read_file(handle)
                except configparser.Error as exc:
                    raise ConfigError([str(exc)]) from exc

    problems: list[str] = []
    config_kwargs: dict[str, Any] = {}
    grid_kwargs: dict[str, Any] = {}

    def stash(section: str, name: str, raw: str) -> None:
        field, parse = _SCHEMA[section][name]
        try:
            value = parse(raw)
        except ValueError as exc:
            problems.append(f"{section}.{name}: {exc}")
            return
        target = grid_kwargs if section == "sweep" else config_kwargs
        target[field] = value

    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for name, raw in parser.items(section):
            if name not in _SCHEMA[section]:
                problems.append(f"unknown key {section}.{name}")
                continue
            stash(section, name, raw)

    for pair in overrides:
        key, eq, raw = pair.partition("=")
        if not eq:
            problems.append(f"override {pair!r} is not of the form key=value")
            continue
        try:
            section, name = _locate_key(key.strip())
        except ValueError as exc:
            problems.append(str(exc))
            continue
        stash(section, name, raw)

    if problems:
        raise ConfigError(problems)

    config = ScenarioConfig(**config_kwargs)
    try:
        grid = SweepGrid(**grid_kwargs)
    except ValueError as exc:
        problems.append(str(exc))
        grid = SweepGrid()
    problems.extend(validate_scenario(config))
    if problems:
        raise ConfigError(problems)
    return config, grid


def _format_value(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_format_value(item) for item in value)
    return str(value)


def dump_config(config: ScenarioConfig, grid: SweepGrid | None = None) -> str:
    """Render a scenario as INI text that parses back to an equal config."""
    lines: list[str] = []
    for section, keys in _SCHEMA.items():
        body: list[str] = []
        for name, (field, _) in keys.items():
            if section == "sweep":
                if grid is None:
                    continue
                value = getattr(grid, field)
                if value == ():
                    continue
            else:
                value = getattr(config, field)
            body.append(f"{name} = {_format_value(value)}")
        if body:
            lines.append(f"[{section}]")
            lines.extend(body)
            lines.append("")
    return "\n".join(lines)
