"""The per-layer tracer of perfbench wraps kvertex functions and methods by
name; a rename in src/ must fail here rather than in a traced benchmark run."""
import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _targets():
    """The TARGETS table of tracer.py, read without importing the tracer."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no TARGETS table")


def _resolves(module, qual) -> bool:
    mod = importlib.import_module(f"kvertex.{module}")
    if "." in qual:
        cls, name = qual.split(".")
        # the tracer replaces the entry of the class namespace itself
        return name in vars(getattr(mod, cls, object))
    return callable(getattr(mod, qual, None))


def test_every_tracer_target_resolves():
    targets = _targets()
    assert len(targets) > 50
    missing = [(module, qual) for module, qual, _span in targets if not _resolves(module, qual)]
    assert missing == []
