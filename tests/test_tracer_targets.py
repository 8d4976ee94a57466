"""The benchmark's traced mode wraps the functions that ``bench/tracer.py``
names in ``TARGETS``, by ``getattr`` on their owners, and fails if one is
gone.  This reads that list, without importing or changing ``bench/``, and
checks that each entry still resolves to a callable.  The tracer's argument
hooks read some arguments by position, so those positions are checked too."""
import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in n.targets)]
    return [(ast.unparse(owner), attr.value) for _, owner, attr, _ in
            (entry.elts for entry in node.value.elts)]


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    owner = importlib.import_module(f"dpgrowth.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    return owner


def test_every_traced_target_resolves():
    targets = _targets()
    assert ("harness", "_execute_trial") in targets
    assert ("localization", "run") in targets
    assert ("epoch_growth", "run") in targets
    for owner, attr in targets:
        assert callable(getattr(_resolve(owner), attr)), f"{owner}.{attr}"
    for owner, attr, positions in (
        ("localization", "run", {"loss": 0, "cfg": 4}),
        ("epoch_growth", "run", {"trace": 6}),
        ("erm", "solve", {"problem": 0, "tol": 1}),
        ("core", "project", {"domain": 0}),
        ("mechanisms", "empirical_dp_test", {"trials": 4}),
    ):
        assert (owner, attr) in targets
        params = list(inspect.signature(getattr(_resolve(owner), attr)).parameters)
        for name, pos in positions.items():
            assert params[pos] == name, f"{owner}.{attr}: {name} is not argument {pos}"
