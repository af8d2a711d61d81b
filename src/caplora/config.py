"""Scenario files: flat INI with sections, parsed with every violation
reported at once, plus command-line overrides and round-trip dumping."""

from __future__ import annotations

import configparser
from itertools import chain
from pathlib import Path
from typing import IO, Any, Callable

from .analysis import SweepGrid
from .engine import ScenarioConfig, validate_scenario
from .errors import ConfigError


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _optional(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    def parser(text: str) -> Any:
        stripped = text.strip()
        return None if stripped.lower() in ("", "none") else parse(stripped)

    return parser


def _list_of(parse: Callable[[str], Any]) -> Callable[[str], tuple]:
    def parser(text: str) -> tuple:
        items = [piece.strip() for piece in text.split(",")]
        return tuple(parse(piece) for piece in items if piece)

    return parser


_PARSERS: dict[str, Callable[[str], Any]] = {
    "float": float,
    "int": int,
    "str": str.strip,
    "bool": _parse_bool,
}


def _parser(annotation: str) -> Callable[[str], Any]:
    """The value parser for a field annotation such as ``"float | None"``."""
    if annotation.startswith("tuple[") and annotation.endswith(", ...]"):
        return _list_of(_parser(annotation[len("tuple[") : -len(", ...]")]))
    if annotation.endswith(" | None"):
        return _optional(_parser(annotation[: -len(" | None")]))
    if annotation not in _PARSERS:
        raise TypeError(f"no INI parser for the annotation {annotation!r}")
    return _PARSERS[annotation]


# The field that opens each INI section; the fields declared after it belong
# to the same section until the next one opens. [sweep] keys target
# SweepGrid, every other section targets ScenarioConfig.
_SECTION_STARTS = {
    "capacitance_f": "capacitor",
    "harvester": "harvester",
    "data_rate": "lorawan",
    "off_a": "currents",
    "packet_period_s": "traffic",
    "duration_s": "sim",
    "capacitances_f": "sweep",
}

# INI keys that differ from the field they set.
_KEY_NAMES = {
    "harvester": "kind",
    "harvest_update_period_s": "update_period_s",
    "guard_enabled": "guard",
    "capacitances_f": "capacitance_f",
    "powers_w": "power_w",
    "data_rates": "data_rate",
    "payloads_bytes": "payload_bytes",
    "periods_s": "period_s",
    "kinds": "kind",
}


def _derive_schema() -> dict[str, dict[str, tuple[str, Callable[[str], Any]]]]:
    """section -> key -> (field, value parser), in field order."""
    # Both are named tuples, which annotate exactly their fields, each as a
    # forward reference; SweepGrid's are on the NamedTuple it extends.
    schema: dict[str, dict[str, tuple[str, Callable[[str], Any]]]] = {}
    for name, ref in chain(
        ScenarioConfig.__annotations__.items(), SweepGrid.__base__.__annotations__.items()
    ):
        if name in _SECTION_STARTS:
            keys = schema[_SECTION_STARTS[name]] = {}
        keys[_KEY_NAMES.get(name, name)] = (name, _parser(ref.__forward_arg__))
    return schema


_SCHEMA = _derive_schema()


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
        try:
            if hasattr(source, "read"):
                parser.read_file(source)
            else:
                path = Path(source)
                if not path.is_file():
                    raise ConfigError([f"config file not found: {path}"])
                with path.open() as handle:
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
    except ConfigError as exc:
        problems.extend(exc.problems)
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
