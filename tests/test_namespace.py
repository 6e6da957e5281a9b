import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import nrp
from nrp import cli, harness

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


def test_console_script_runs_the_cli_main():
    # pyproject's [project.scripts] entry; Python 3.10 has no tomllib, so a regex reads it
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^nrp\s*=\s*"([\w.]+):(\w+)"\s*$', scripts, re.M)
    assert target is not None
    module, function = target.groups()
    assert getattr(importlib.import_module(module), function) is cli.main
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "nrp.cli", "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: nrp ")


def test_a_sequential_batch_never_loads_the_process_pool():
    # a fresh interpreter: this one may have run a pooled batch already
    script = (
        "import sys\n"
        "import nrp, nrp.cli, nrp.harness\n"
        "from nrp.instance_io import GeneratorParams, generate_instance\n"
        "instance = generate_instance(GeneratorParams(n=4, m=8, g=2, seed=1))\n"
        "spec = nrp.harness.preset_spec('full', max_iterations=20)\n"
        "assert len(nrp.harness.run_batch(instance, spec, 1, 0)) == 1\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_imported_name_is_read():
    # a name an import binds and no expression reads is dead; __future__
    # imports and the names __all__ re-exports are read by their own means
    unread = []
    for folder in ("src/nrp", "tests", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported, read = {}, set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"
                ):
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets
                ):
                    read.update(ast.literal_eval(node.value))
            unread += [
                f"{path.relative_to(ROOT)}:{line}: {name}"
                for name, line in imported.items() if name not in read
            ]
    assert not unread
