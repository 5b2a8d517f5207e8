"""``src/`` holds production code only: every definition in it is reached.

A function, class or method under ``src/`` that nothing in ``src/``,
``examples/`` or ``benchmarks/`` reaches is not production code: a
reference implementation belongs in ``tests/oracle.py``, and a helper only
tests call belongs in the tests.  The scan is by name, in plain AST: a
definition is reached when a ``Name``, an ``Attribute`` or an
identifier-shaped string constant (a ``getattr`` or patch target) names it
in code that is itself reached — module-level code, the examples and
benchmarks, and the bodies of reached or kept definitions — rescanned
until nothing new turns up.  Docstrings, ``__all__`` entries and import
lines do not count; dunder methods are called by the language and always
count.

A name cannot tell two definitions of one name apart: a method named like
a builtin's or another class's method counts as reached when either is, so
a change that deletes callers should also look for same-named survivors.

``KEPT`` lists the definitions nothing reaches that stay on purpose, each
with its reason.  An entry that is reached again, or no longer defined,
fails the test too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLERS = (ROOT / "examples", ROOT / "benchmarks")

_PROBE = "read-only probe the tests check invariants with"
KEPT: dict[str, str] = {
    "repro.core.distributed.ShardedHotlineTrainer.dense_sync_time": _PROBE,
    "repro.core.pipeline.HotlineTrainer.dense_sync_time": _PROBE,
    "repro.core.eal.EmbeddingAccessLogger.occupancy": _PROBE,
    "repro.core.engine.TrainingResult.iterations": _PROBE,
    "repro.core.hotset.HotSetIndex.is_hot": _PROBE,
    "repro.core.lookahead.CachedEmbeddingPipeline.pending_rows_total": _PROBE,
    "repro.core.lookahead.FlatPendingStore.birth_steps": _PROBE,
    "repro.core.placement.EmbeddingPlacement.cpu_bytes": _PROBE,
    "repro.core.placement.PartitionedEmbeddingPlacement.owner_of": _PROBE,
    "repro.core.placement.PartitionedEmbeddingPlacement.owned_range": _PROBE,
    "repro.core.placement.PartitionedEmbeddingPlacement.shard_bytes": _PROBE,
    "repro.hwsim.trace.Timeline.utilisation": _PROBE,
    "repro.models.dlrm.RecommendationModel.num_sparse_parameters": _PROBE,
    "repro.nn.embedding.TieredEmbeddingStore.pinned_rows": _PROBE,
    "repro.nn.embedding.TieredEmbeddingStore.resident_bytes": _PROBE,
    "repro.nn.embedding.TieredEmbeddingStore.is_resident": _PROBE,
    "repro.experiments.registry.list_experiments": (
        "the experiment registry's index, which the package docstring lists "
        "experiments with"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uncounted(tree: ast.AST) -> set[int]:
    """Ids of the nodes whose names do not count: bare string statements
    (docstrings) and ``__all__`` assignments.  Import aliases are not
    ``Name`` nodes, so imports never count."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
        elif isinstance(node, ast.Assign | ast.AnnAssign | ast.AugAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skip.update(id(sub) for sub in ast.walk(node))
    return skip


def _names(nodes: list[ast.AST], skip: set[int]) -> set[str]:
    """Every name the nodes use: ``Name`` ids, ``Attribute`` attrs, and the
    parts of identifier-shaped string constants."""
    names: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _IDENTIFIER.match(node.value):
                    names.update(node.value.split("."))
    return names


def _class_shell(node: ast.ClassDef) -> list[ast.AST]:
    """What a reached class runs besides its methods: bases, decorators,
    keywords and class-level statements."""
    body = [stmt for stmt in node.body if not isinstance(stmt, _DEFS)]
    return [*node.bases, *node.keywords, *node.decorator_list, *body]


def scan(
    modules: dict[str, str], callers: list[str], kept: dict[str, str]
) -> tuple[list[str], list[str]]:
    """Reachability over ``modules`` (dotted name -> source).

    Returns the unreached definitions that ``kept`` does not list, and the
    ``kept`` entries that are reached or not defined.
    """
    live: set[str] = set()
    definitions: list[tuple[str, str, list[ast.AST], set[int]]] = []
    for module, source in modules.items():
        tree = ast.parse(source)
        skip = _uncounted(tree)
        for stmt in tree.body:
            if not isinstance(stmt, _DEFS):
                live |= _names([stmt], skip)
                continue
            qualname = f"{module}.{stmt.name}"
            shell = _class_shell(stmt) if isinstance(stmt, ast.ClassDef) else [stmt]
            definitions.append((qualname, stmt.name, shell, skip))
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, _DEFS):
                        definitions.append(
                            (f"{qualname}.{member.name}", member.name, [member], skip)
                        )
    for source in callers:
        tree = ast.parse(source)
        live |= _names([tree], _uncounted(tree))
    for qualname, _name, body, skip in definitions:
        if qualname in kept:
            live |= _names(body, skip)
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qualname, name, body, skip in definitions:
            dunder = name.startswith("__") and name.endswith("__")
            if qualname not in reached and (dunder or name in live):
                reached.add(qualname)
                live |= _names(body, skip)
                grew = True
    defined = {qualname for qualname, *_ in definitions}
    unreached = [q for q, *_ in definitions if q not in reached and q not in kept]
    stale = sorted(q for q in kept if q not in defined or q in reached)
    return unreached, stale


def _src_modules() -> dict[str, str]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def _caller_sources() -> list[str]:
    return [path.read_text() for root in CALLERS for path in sorted(root.rglob("*.py"))]


def test_the_scan_follows_names_from_reached_code_only():
    module = '''
"""Docstring naming docstring_only."""
__all__ = ["exported_only"]
from os import path as imported_only
VALUE = used()

def used():
    return helper()

def helper():
    pass

def dead():
    return dead_callee()

def dead_callee():
    pass

def exported_only():
    pass

def docstring_only():
    pass

def imported_only():
    pass

def by_string():
    pass

def kept():
    return kept_callee()

def kept_callee():
    pass

def kept_but_used():
    pass

class Box:
    def __init__(self):
        pass

    def method(self):
        pass

    def unused(self):
        pass
'''
    callers = ['getattr(obj, "by_string")\nBox().method()\nkept_but_used()\n']
    kept = {"m.kept": "", "m.kept_but_used": "", "m.gone": ""}
    unreached, stale = scan({"m": module}, callers, kept)
    assert unreached == [
        "m.dead",
        "m.dead_callee",
        "m.exported_only",
        "m.docstring_only",
        "m.imported_only",
        "m.Box.unused",
    ]
    assert stale == ["m.gone", "m.kept_but_used"]


def test_every_src_definition_is_reached_from_production_code():
    modules = _src_modules()
    assert modules, f"no modules found under {SRC}"
    unreached, _stale = scan(modules, _caller_sources(), KEPT)
    assert not unreached, (
        "defined in src/ but reached from nothing in src/, examples/ or benchmarks/ "
        f"(delete it, move a reference into tests/oracle.py, or list it in KEPT): {unreached}"
    )


def test_kept_definitions_exist_and_are_still_unreached():
    _unreached, stale = scan(_src_modules(), _caller_sources(), KEPT)
    assert not stale, f"KEPT entries that are reached or no longer defined: {stale}"
