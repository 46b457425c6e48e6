"""The reach ledger (``REACH.json``) and the probe's mapping from code
objects to functions (``tools/reach.py``).  AST only: no entry point
is run here; ``python tools/reach.py --check`` does that."""

import importlib.util
import json
import re
import types
from pathlib import Path

from . import reach_fixture

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def _open_items() -> set[int]:
    text = (ROOT / "ROADMAP.md").read_text()
    section = text.split("\n## Open items\n", 1)[1].split("\n## ", 1)[0]
    return {int(n) for n in re.findall(r"^(\d+)\.\s+\*\*", section, flags=re.M)}


def test_ledger_names_existing_functions_with_known_labels():
    ledger = json.loads((ROOT / "REACH.json").read_text())
    functions = {fn.key for fns in reach.package_functions().values() for fn in fns}
    assert sorted(set(ledger) - functions) == []
    assert {entry["label"] for entry in ledger.values()} <= set(reach.LABELS)
    assert all(entry["why"].strip() for entry in ledger.values())


def test_earns_a_caller_names_an_open_item():
    ledger = json.loads((ROOT / "REACH.json").read_text())
    open_items = _open_items()
    assert 21 in open_items
    for key, entry in ledger.items():
        if entry["label"] == "earns a caller":
            items = {int(n) for n in re.findall(r"\bitems? (\d+)", entry["why"])}
            assert items & open_items, (key, entry["why"])


def _codes(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def test_code_objects_map_to_their_functions():
    """Every function of the fixture maps, decorated ones by their
    decorator line: their code objects start there, not at ``def``."""
    path = Path(reach_fixture.__file__)
    source = path.read_text()
    functions = reach.module_functions(source, "reach_fixture.py")
    code = compile(source, str(path), "exec")
    pairs = [(c.co_firstlineno, c.co_name) for c in _codes(code)]
    assert reach.match_codes(functions, pairs) == {
        "reach_fixture.py::decorated",
        "reach_fixture.py::outer",
        "reach_fixture.py::outer.<locals>.nested",
        "reach_fixture.py::Shape.method",
        "reach_fixture.py::Shape.prop",
    }
    decorated = next(fn for fn in functions if fn.name == "decorated")
    assert decorated.first_line < decorated.def_line
    assert (decorated.def_line, "decorated") not in pairs


def test_repeated_qualnames_are_numbered():
    source = "def f():\n    pass\n\n\ndef f():\n    pass\n"
    assert [fn.key for fn in reach.module_functions(source, "m.py")] == ["m.py::f", "m.py::f[2]"]
