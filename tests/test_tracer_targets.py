"""The per-layer tracer of perfbench wraps kvertex functions and methods by
name; a rename in src/ must fail here rather than in a traced benchmark run."""
import ast
import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _table(filename, name):
    """The literal table `name` of a perfbench file, read without importing it."""
    with open(os.path.join(PERFBENCH, filename)) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} defines no {name} table")


def _targets():
    return _table("tracer.py", "TARGETS")


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


def test_every_required_span_is_a_tracer_span():
    # run.py fails a traced run whose required span recorded no calls; a
    # span that no target records could never pass
    spans = {span for _module, _qual, span in _targets()}
    required = _table("run.py", "REQUIRED_SPANS")
    assert required and all(required.values())
    missing = [(workload, span) for workload, names in required.items()
               for span in names if span not in spans]
    assert missing == []
