"""The README's module table names what its modules define, and every
function the package exports; its Python examples run."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import npassive

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# the fenced python blocks, by their order in the README, so that an edit
# elsewhere in it keeps every test id
PYTHON_BLOCKS = {
    f"block{k}": m[1]
    for k, m in enumerate(re.finditer(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S))
}


def module_table():
    """(module, [names]) per row of the table under "| Module | Contents |"."""
    rows = []
    for line in README.read_text().splitlines():
        match = re.match(r"\| `(npassive\.\w+)` \| (.*) \|$", line)
        if match:
            # a backticked span names its leading identifier, e.g. `occupations(d, N)`
            rows.append((match[1], re.findall(r"`([A-Za-z_]\w*)", match[2])))
    return rows


def test_table_names_exist():
    rows = module_table()
    assert rows, "no module table found"
    for module, names in rows:
        assert names, module
        mod = importlib.import_module(module)
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, (module, missing)


def test_public_functions_are_in_the_table():
    # the reverse direction: each function npassive exports is named in its module's row
    rows = dict(module_table())
    unlisted = [
        name
        for name, obj in vars(npassive).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and name not in rows.get(obj.__module__, ())
    ]
    assert not unlisted, unlisted


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("block", sorted(PYTHON_BLOCKS))
def test_python_example_runs(block):
    code = PYTHON_BLOCKS[block]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
