"""The package's public names resolve, and README's library quick start runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hetpref

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(hetpref.__path__)))
def test_module_all_resolves(name):
    # a name left in __all__ after its definition moved makes ``import *`` raise
    module = importlib.import_module(f"hetpref.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from hetpref.{name} import *", {})


def test_package_names_are_public_in_their_modules():
    tree = ast.parse(Path(hetpref.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"hetpref.{node.module}")
        for alias in node.names:
            assert hasattr(hetpref, alias.name), alias.name
            assert alias.name in module.__all__, (node.module, alias.name)


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and float(printed[1]) >= 0.0, printed
