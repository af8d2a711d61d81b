"""The error that carries configuration problems as a list, one message each."""

from __future__ import annotations


class ConfigError(ValueError):
    """Carries the full list of configuration problems found."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
