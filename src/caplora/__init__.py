"""Discrete-event simulation of battery-less LoRaWAN devices running from a
harvester-charged capacitor: closed-form RC energy model, Class A MAC with
duty cycling and a pre-transmission energy guard, and analysis helpers for
minimum-capacitance and packet-success studies."""

from . import analysis, clock, config, device, energy, engine, harvester, lorawan
from .config import parse_config
from .engine import Metrics, ScenarioConfig, Simulator, run_scenario
from .errors import ConfigError

__version__ = "0.1.0"

# The entry points README documents; every other name is imported from its
# submodule, which ``import caplora`` binds.
__all__ = [
    "ConfigError",
    "Metrics",
    "ScenarioConfig",
    "Simulator",
    "__version__",
    "parse_config",
    "run_scenario",
]
