"""Guards on the package as a whole: its exports, where enumeration lives,
and what importing the CLI costs."""

import ast
import os
import pathlib
import subprocess
import sys

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


def _imports_the_oracle(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "mallows_topk.oracle" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "oracle":
                return True
            if (module in ("", "mallows_topk")
                    and any(alias.name == "oracle" for alias in node.names)):
                return True
    return False


def test_no_library_module_imports_the_oracle():
    # the oracle is the tests' ground truth; the package only re-exports it
    offenders = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
                 if path.name != "__init__.py"
                 and _imports_the_oracle(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []
    assert _imports_the_oracle(ast.parse((PACKAGE_DIR / "__init__.py").read_text()))


def _names_from_rankings(tree: ast.AST) -> set:
    """The names a module takes from `rankings`; importing the module itself
    counts as the name "rankings"."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "rankings"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update("rankings" for alias in node.names
                         if alias.name.split(".")[-1] == "rankings")
    return names


def test_the_oracle_takes_only_the_ranking_types_from_rankings():
    # the oracle counts pairs itself, so it checks the library's kernels
    # rather than repeating them
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text(encoding="utf-8"))
    assert _names_from_rankings(tree) == {"Permutation", "TopKRanking"}


def test_importing_the_cli_builds_no_parser():
    # the parser is built by the first main() call, so import time does not pay for it
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **kw: built.append(1) or init(self, *a, **kw)\n"
            "import mallows_topk.cli\n"
            "print(len(built))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"
