"""The inline Python programs of the CI workflow (its python -c '...' steps)
compile, and every name they take from the package or from the test
oracles exists.  CI installs no YAML parser, so the workflow is read as
text."""

import ast
import importlib
import re
import textwrap
from pathlib import Path

import germcontract

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
# from the quote that opens the program to the line holding only its closing quote
PROGRAM = re.compile(r"python -c '\n(.*?)\n[ \t]*'\n", re.S)


def _programs() -> list[str]:
    text = WORKFLOW.read_text()
    found = PROGRAM.findall(text)
    assert len(found) == text.count("python -c"), "a python -c step the pattern does not take"
    return [textwrap.dedent(program) for program in found]


def _defined_in_oracles() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _is_package_module(name: str) -> bool:
    try:
        importlib.import_module(f"germcontract.{name}")
    except ImportError:
        return False
    return True


def test_every_inline_program_compiles_and_imports_names_that_exist():
    programs = _programs()
    assert len(programs) >= 5
    oracle_names = _defined_in_oracles()
    for source in programs:
        compile(source, str(WORKFLOW), "exec")
        tree = ast.parse(source)
        modules = {}  # the local name of each imported package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                if node.module == "germcontract":
                    for name in names:
                        assert name in germcontract.__all__ or _is_package_module(name), name
                elif node.module == "oracles":
                    assert set(names) <= oracle_names, names
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("germcontract."):
                        modules[alias.asname] = importlib.import_module(alias.name)
        # a step that patches a module attribute patches one the module has
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    owner = getattr(target, "value", None)
                    if isinstance(owner, ast.Name) and owner.id in modules:
                        assert hasattr(modules[owner.id], target.attr), target.attr
