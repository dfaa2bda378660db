"""The README's module table names what its modules define, and every
function the package exports."""

import importlib
import inspect
import re
from pathlib import Path

import npassive

README = Path(__file__).resolve().parent.parent / "README.md"


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
