"""Rules of the package layout that no behaviour test would catch."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nonharmonic").glob("*.py"))


class _Sites(ast.NodeVisitor):
    """(innermost enclosing function or None, node) of every attribute node
    named `attr`, or only of those it stores to if `stores`."""

    def __init__(self, attr: str, stores: bool):
        self.attr, self.stores = attr, stores
        self.functions, self.found = [], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr == self.attr and (not self.stores or isinstance(node.ctx, ast.Store)):
            self.found.append((self.functions[-1] if self.functions else None, node.lineno))
        self.generic_visit(node)


def sites(attr: str, stores: bool = False) -> list:
    out = []
    for path in SOURCES:
        visitor = _Sites(attr, stores)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        out += [(path.name, function) for function, _ in visitor.found]
    return out


def test_only_symbols_touches_the_derived_cache():
    # every other module reaches a symbol's cache through Symbol.derived
    assert {module for module, _ in sites("_cache")} == {"symbols.py"}


def test_arrays_are_made_read_only_in_one_place():
    assert sites("writeable", stores=True) == [("model.py", "_read_only")]
    assert sites("setflags") == []


def test_evolution_solves_its_step_systems_in_one_place():
    # every implicit step of every walk, of every column, is one factorization there
    assert [site for site in sites("solve") if site[0] == "evolve.py"] == [
        ("evolve.py", "implicit_step")]


def test_only_threads_reads_the_lane_count():
    # every other module takes its blocks and shares from `threads`
    readers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "lanes"
                    or isinstance(node, ast.Name) and node.id == "lanes"
                    or isinstance(node, ast.alias) and node.name == "lanes"):
                readers.add(path.name)
    assert readers == {"threads.py"}
