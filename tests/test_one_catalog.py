"""One bound catalog: each signed bound's id is written once in ``sglap``,
on its row of ``bounds._CATALOG``, and README's bound table follows it.

``SIGNED_CATALOG``, the evaluation order, the public bound functions,
``classic_bounds`` and every assert message read the id off the row, so a
second list of ids cannot creep back unseen.  README's "Bound catalog"
table lists the same ids, in the same order and with the same directions,
``KB-1..KB-4`` as one row.
"""

import ast
import re
from pathlib import Path

import sglap
from common import K3M
from sglap import SIGNED_CATALOG, evaluate_all

SOURCES = sorted(Path(sglap.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


def id_literals(tree: ast.AST, bound_id: str) -> list[int]:
    """Lines of each string literal that holds ``bound_id`` as a whole
    token: the literal parts of f-strings count, docstrings do not."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    token = re.compile(rf"(?<![\w-]){re.escape(bound_id)}(?![\w-])")
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings and token.search(node.value)]


def readme_catalog() -> list[tuple[str, str]]:
    """(id, direction) of each row of README's first "Bound catalog" table,
    a ``KB-1..KB-4`` row read as its four ids."""
    section = README.read_text(encoding="utf-8").split("\n## Bound catalog\n", 1)[1]
    table = section.split("\n| id |", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[2:]:
        bound_id, direction = (cell.strip() for cell in line.split("|")[1:3])
        span = re.fullmatch(r"(.+-)(\d+)\.\.\1(\d+)", bound_id)
        ids = ([f"{span[1]}{k}" for k in range(int(span[2]), int(span[3]) + 1)]
               if span else [bound_id])
        rows += [(each, direction) for each in ids]
    return rows


def test_every_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "balance.py", "bounds.py", "cli.py",
                                         "harness.py", "sgraph.py", "spectra.py"}


def test_every_signed_id_is_written_once():
    assert len(SIGNED_CATALOG) == 16
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in SOURCES}
    for bound_id in SIGNED_CATALOG:
        sites = [(name, line) for name, tree in trees.items()
                 for line in id_literals(tree, bound_id)]
        assert len(sites) == 1 and sites[0][0] == "bounds.py", (bound_id, sites)


def test_the_scan_finds_an_id():
    tree = ast.parse('"""KB-1 in a docstring."""\n'
                     'ROW = ("KB-1", "KB-10", "LB-TR-L-1", "KB-1..KB-4")\n'
                     'def f(x):\n'
                     '    """KB-1 again."""\n'
                     '    raise ValueError(f"KB-1: {x} < 0")\n')
    assert id_literals(tree, "KB-1") == [2, 2, 5]
    assert id_literals(tree, "LB-TR-1") == []


def test_readme_table_follows_the_catalog():
    catalog = [(r.bound_id, r.direction) for r in evaluate_all(K3M).results]
    assert [bound_id for bound_id, _ in catalog] == list(SIGNED_CATALOG)
    assert readme_catalog() == catalog
