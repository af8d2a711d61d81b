"""The runtime needs nothing beyond the Python standard library."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import caplora

SRC = Path(caplora.__file__).resolve().parent.parent

# Run in an isolated interpreter without site packages: a third-party import
# fails outright, and anything else loaded outside the standard library is
# listed.
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import caplora, caplora.cli
for name in sorted(sys.modules):
    top = name.partition(".")[0]
    if top not in sys.stdlib_module_names and top not in ("caplora", "__main__"):
        print(name)
"""


def test_importing_caplora_loads_only_the_standard_library():
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, str(SRC)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
