"""The error that carries configuration problems as a list, one message each."""

from __future__ import annotations


def shown(value: object) -> str:
    """``value`` in a problem's text: ``str(value)``, or an int's size where ``str`` refuses it."""
    try:
        return str(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


class ConfigError(ValueError):
    """Carries the full list of configuration problems found."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
