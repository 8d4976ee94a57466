"""``scripts/decisions_ledger.py`` reproduces the numbers in
``docs/decisions.md``, and the test suite does not run it, so a rename or a
deletion in ``dpgrowth`` would break it silently.  This reads the script's
syntax tree, without running it, and checks that every ``dpgrowth`` name it
reads resolves: the names it imports from the package and its modules, the
attributes it reads off them, and the ``(owner, "attribute")`` pairs that it
swaps with ``setattr``."""
import ast
import importlib
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1] / "scripts" / "decisions_ledger.py"


def _imported(tree) -> tuple[dict, list]:
    """The names the ledger imports from dpgrowth, to their objects, and
    the imports that do not resolve."""
    names, missing = {}, []
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "dpgrowth"):
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            try:
                value = importlib.import_module(f"{node.module}.{alias.name}")
            except ModuleNotFoundError:
                value = getattr(module, alias.name, missing)
            if value is missing:
                missing.append(f"{node.module}.{alias.name}")
            else:
                names[alias.asname or alias.name] = value
    return names, missing


def _reads(tree, names: dict):
    """``(name, attribute)`` for each attribute read or set off an imported
    name, and for each imported name followed by a string in a tuple."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in names):
            yield node.value.id, node.attr
        elif isinstance(node, ast.Tuple):
            for owner, attr in zip(node.elts, node.elts[1:]):
                if (isinstance(owner, ast.Name) and owner.id in names
                        and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                    yield owner.id, attr.value


def test_every_dpgrowth_name_the_ledger_reads_resolves():
    tree = ast.parse(LEDGER.read_text())
    names, missing = _imported(tree)
    assert not missing
    reads = set(_reads(tree, names))
    # The walk sees plain reads, swaps and the GRID_CHANGES table.
    assert {("core", "children_laplace"), ("harness", "histogram_test"),
            ("inv_sensitivity", "_grid_1d"), ("localization", "_run_chains")} <= reads
    missing = [f"{owner}.{attr}" for owner, attr in sorted(reads)
               if not hasattr(names[owner], attr)]
    assert not missing
