"""Guards on the package as a whole: its exports, and where enumeration lives."""

import ast
import pathlib

import mallows_topk

PACKAGE_DIR = pathlib.Path(mallows_topk.__file__).parent


def test_every_export_resolves():
    missing = [name for name in mallows_topk.__all__ if not hasattr(mallows_topk, name)]
    assert missing == []
    assert len(set(mallows_topk.__all__)) == len(mallows_topk.__all__)


def _uses_permutations(tree: ast.AST) -> bool:
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names
             if alias.name == "itertools"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "permutations"
                and isinstance(node.value, ast.Name) and node.value.id in names):
            return True
        if (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                and any(alias.name == "permutations" for alias in node.names)):
            return True
    return False


def test_only_the_oracle_enumerates_permutations():
    # n! enumeration is the oracle's job; every other module uses closed forms
    offenders = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if path.name != "oracle.py"
                 and _uses_permutations(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []
    assert _uses_permutations(ast.parse((PACKAGE_DIR / "oracle.py").read_text()))
