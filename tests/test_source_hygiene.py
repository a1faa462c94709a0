"""Dead-code checks on the package source, with the standard ``ast`` module.

Two rules keep a change from leaving orphans behind in ``src/rakeuq/``:

* every module-level private name (a function, class or assignment whose
  name starts with one underscore) is read somewhere in the package;
* no module other than ``__init__.py``, which re-exports, imports a name
  that it never reads.

A name counts as read where it is loaded as a bare name or accessed as an
attribute, in any module of the package; tests do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rakeuq"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_package_is_parsed():
    assert {"__init__.py", "fourier.py", "propagation.py"} <= set(TREES)


def test_every_private_module_name_is_read():
    read = set().union(*(_read_names(tree) for tree in TREES.values()))
    orphans = [f"{module}:{name}" for module, tree in TREES.items()
               for name in _private_definitions(tree) if name not in read]
    assert not orphans, f"private names never read: {orphans}"


def test_no_module_imports_a_name_it_never_reads():
    unused = [f"{module}:{name}" for module, tree in TREES.items() if module != "__init__.py"
              for name in _imported_names(tree) if name not in _read_names(tree)]
    assert not unused, f"imported but never read: {unused}"
