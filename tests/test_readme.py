"""README's Python API section: its example runs, and its export list is the
package's ``__all__``."""

from __future__ import annotations

import re
import types
from pathlib import Path

import caplora

README = Path(__file__).resolve().parent.parent / "README.md"

SUBMODULES = ("analysis", "clock", "config", "device", "energy", "engine", "harvester", "lorawan")


def _python_api_section() -> str:
    text = README.read_text()
    start = text.index("## Python API")
    return text[start : text.index("\n## ", start)]


def test_all_is_the_documented_export_list():
    documented = re.search(r"exports exactly (.*?)\. Every", _python_api_section(), re.S)
    assert documented is not None
    names = re.findall(r"`(\w+)`", documented.group(1))
    assert sorted(caplora.__all__) == sorted(names)
    for name in names:
        assert hasattr(caplora, name), name


def test_import_binds_every_submodule():
    for name in SUBMODULES:
        assert isinstance(getattr(caplora, name), types.ModuleType), name


def test_python_api_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", _python_api_section(), re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    generated, delivered, acked = map(int, capsys.readouterr().out.split())
    assert 0 <= acked <= delivered <= generated
    assert generated > 0


def test_every_dotted_name_resolves():
    # Each ``caplora.<module>.<name>`` README names is found where it says.
    dotted = set(re.findall(r"\bcaplora\.(\w+)\.(\w+)\b", README.read_text()))
    assert dotted
    for module, name in dotted:
        assert module in SUBMODULES, module
        assert hasattr(getattr(caplora, module), name), f"caplora.{module}.{name}"
