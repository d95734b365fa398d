"""One edge form: outside ``SignedGraph`` nothing in ``sglap`` reads the
attribute ``edges``.

Every reader goes through ``edge_arrays``, the sorted int64 arrays each
graph holds from construction.  ``SignedGraph`` itself may read ``edges``:
its constructor checks the tuples, and it builds the set on first read.
"""

import ast
from pathlib import Path

import sglap

SOURCES = sorted(Path(sglap.__file__).parent.glob("*.py"))


def edges_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing function) of each read of ``.edges`` outside the
    class ``SignedGraph``."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.ClassDef) and node.name == "SignedGraph":
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.Attribute) and node.attr == "edges"
                and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "balance.py", "bounds.py", "cli.py",
                                         "harness.py", "sgraph.py", "spectra.py"}


def test_no_edges_read_outside_signed_graph():
    for path in SOURCES:
        assert edges_reads(ast.parse(path.read_text(encoding="utf-8"), str(path))) == [], path.name


def test_the_scan_finds_a_read():
    tree = ast.parse("def f(g):\n"
                     "    return sorted(g.edges)\n"
                     "class SignedGraph:\n"
                     "    def m(self):\n"
                     "        return len(self.edges)\n"
                     "n = len(G.edges)\n")
    assert edges_reads(tree) == [(2, "f"), (6, "<module>")]
