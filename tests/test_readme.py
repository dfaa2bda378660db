"""The README's module table names only what its modules define."""

import importlib
import re
from pathlib import Path

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
