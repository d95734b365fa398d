"""One array path: ``sglap`` has a single eigensolver call site, and its
statistics and bounds read the edge arrays whole, never edge by edge.

Every eigenvalue goes through ``spectra._eigvalsh``, so a batch of graphs
and a single graph share one solver.  ``sgraph``, ``spectra``, ``bounds``
and ``balance`` hold no loop that turns the edge columns into Python lists
and zips them, the scalar form the batch replaced; in ``balance`` that
keeps every balance result on the double cover, with no second search
beside it.  ``SignedGraph`` itself may: it builds its edge set of tuples
from the columns.
"""

import ast
from pathlib import Path

import sglap

SOURCES = sorted(Path(sglap.__file__).parent.glob("*.py"))
ARRAY_MODULES = ("sgraph.py", "spectra.py", "bounds.py", "balance.py")


def eigvalsh_calls(tree: ast.AST) -> list[int]:
    """Lines of each call of ``<anything>.linalg.eigvalsh``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "eigvalsh" and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "linalg"]


def column_zips(tree: ast.AST) -> list[int]:
    """Lines of each ``zip(*(... .tolist() ...))`` outside the class
    ``SignedGraph``: a zip of starred arguments that call ``tolist``."""
    found = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == "SignedGraph":
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "zip"):
            for arg in node.args:
                if isinstance(arg, ast.Starred) and any(
                        isinstance(n, ast.Attribute) and n.attr == "tolist"
                        for n in ast.walk(arg.value)):
                    found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"balance.py", "bounds.py", "cli.py", "harness.py",
                                         "sgraph.py", "spectra.py"}


def test_one_eigensolver_call_site():
    sites = [(path.name, line) for path in SOURCES for line in eigvalsh_calls(parse(path))]
    assert len(sites) == 1 and sites[0][0] == "spectra.py", sites


def test_no_per_edge_column_loops():
    for path in SOURCES:
        if path.name in ARRAY_MODULES:
            assert column_zips(parse(path)) == [], path.name


def test_the_scans_find_what_they_look_for():
    tree = ast.parse("import numpy as np\n"
                     "def f(a, g):\n"
                     "    for i, j in zip(*(c.tolist() for c in g)):\n"
                     "        pass\n"
                     "    np.linalg.eigvalsh(a)\n"
                     "    return zip(a, b), np.linalg.eigh(a)\n"
                     "w = numpy.linalg.eigvalsh\n"
                     "x = list(zip(*[col.tolist() for col in g]))\n"
                     "class SignedGraph:\n"
                     "    def e(self):\n"
                     "        return set(zip(*(c.tolist() for c in self.a)))\n")
    assert eigvalsh_calls(tree) == [5]
    assert column_zips(tree) == [3, 8]
