"""The package's public names, and the names the benchmark tracer patches.

``perfbench/tracer.py`` wraps package functions and methods by name (its
``SPANS`` and ``COUNTS`` tables), so moving or renaming one breaks the traced
benchmark.  The tables are read from the tracer's source, which is parsed and
never imported, and every entry must still resolve the way the tracer looks
it up: a module attribute for a function, a class ``__dict__`` entry for a
``"Class.method"`` entry.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import walshforge
from walshforge.field import FieldCtx

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# scalar oracles that live in tests/oracles.py, and one-element forms the
# tracer still patches in their modules; neither is part of the public API
MOVED_TO_TESTS = ("x_alpha_from_bits", "f_on_curve", "g_on_curve", "p_poly",
                  "normalize_ab", "maisner_nart_w", "mixed_corpus")
ORACLE_ONLY = ("eval_g", "reduce_difference", "classify_alpha", "eta_of_alpha")


def _tracer_tables() -> dict[str, dict]:
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTS")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_every_tracer_entry_resolves_in_the_package():
    tables = _tracer_tables()
    assert set(tables) == {"SPANS", "COUNTS"}
    unresolved = []
    for modname, attr in [key for table in tables.values() for key in table]:
        mod = importlib.import_module(f"walshforge.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = isinstance(cls, type) and meth in cls.__dict__
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            unresolved.append(f"{modname}.{attr}")
    assert unresolved == []
    FieldCtx(5).ensure_tables()  # the benchmark's setup sample calls it


def test_public_names_resolve_and_exclude_the_test_oracles():
    assert all(hasattr(walshforge, name) for name in walshforge.__all__)
    assert not set(walshforge.__all__) & {*MOVED_TO_TESTS, *ORACLE_ONLY}
    modules = [importlib.import_module(f"walshforge.{info.name}")
               for info in pkgutil.iter_modules(walshforge.__path__)]
    assert [(mod.__name__, name) for mod in [walshforge, *modules]
            for name in MOVED_TO_TESTS if hasattr(mod, name)] == []
