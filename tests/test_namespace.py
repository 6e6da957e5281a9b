import ast
import importlib
import re
import sys
from pathlib import Path

import nrp
from nrp import harness

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_namespace_holds_the_documented_entry_points():
    # the package attribute is the submodule, not a function of the same name
    assert nrp.reconstruct is importlib.import_module("nrp.reconstruct")
    for name in nrp.__all__:
        assert getattr(nrp, name) is not None, name
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [line for line in snippet.splitlines() if line.startswith(("from nrp", "import nrp"))]
    assert imports
    for line in imports:
        exec(line, {})


def test_package_imports_only_itself_and_the_standard_library():
    sources = sorted((ROOT / "src" / "nrp").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "nrp" or top in sys.stdlib_module_names, f"{path.name}: {name}"


def test_readme_preset_table_lists_the_presets_in_order():
    section = README.read_text(encoding="utf-8").split("`--preset` selects", 1)[1]
    table = section.split("\n\n", 2)[1]
    names = re.findall(r"^\| `([^`]+)`", table, re.M)
    assert tuple(names) == harness.PRESET_NAMES
