"""Each public name is declared once: in its module's __all__, beside its definition."""

import ast
import importlib
from pathlib import Path

import pytest

import fracineq

# the package's modules in the order its __init__ imports them
MODULES = ("errors", "specfun", "funcmodel", "rlint", "hh_core", "sweep", "cli")


def _module(name):
    return importlib.import_module(f"fracineq.{name}")


def _top_level_names(module):
    """The names a module's top level binds itself, and those it imports."""
    defined, imported = set(), set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return defined, imported


def test_the_module_list_is_every_module_of_the_package():
    here = Path(fracineq.__file__).parent
    found = {p.stem for p in here.glob("*.py") if not p.stem.startswith("__")}
    assert found == set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_each_public_name_is_defined_in_its_module(name):
    module = _module(name)
    defined, imported = _top_level_names(module)
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= defined
    assert not set(module.__all__) & imported


def test_no_name_is_public_in_two_modules():
    names = [n for m in MODULES for n in _module(m).__all__]
    assert len(names) == len(set(names))


def test_the_package_exports_exactly_the_modules_lists():
    assert fracineq.__all__ == ["__version__", *(n for m in MODULES for n in _module(m).__all__)]
    for m in MODULES:
        for n in _module(m).__all__:
            assert getattr(fracineq, n) is getattr(_module(m), n)
    assert isinstance(fracineq.__version__, str)
