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
