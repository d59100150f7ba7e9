import ast
import pathlib

import toricmld


def test_no_assert_statements_in_the_package():
    """A check that matters must raise: python -O strips every assert."""
    package = pathlib.Path(toricmld.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _unused_imports(source, filename):
    """(line, name) of each name a module imports and never reads."""
    tree = ast.parse(source, filename=filename)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return unused


def test_no_unused_imports_in_the_package():
    """A deleted check leaves no import behind; __init__.py's imports are the API."""
    package = pathlib.Path(toricmld.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            found += ["%s:%d %s" % (path.name, line, name)
                      for line, name in _unused_imports(path.read_text(), str(path))]
    assert found == []


def test_unused_import_scan_sees_a_planted_import():
    source = "from fractions import Fraction\nimport os\nfrom .lattice import dot, primitive\n" \
             "x = primitive(Fraction(1))\n"
    assert _unused_imports(source, "planted.py") == [(2, "os"), (3, "dot")]
