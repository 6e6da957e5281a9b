import importlib
import re
from pathlib import Path

import nrp

README = Path(__file__).resolve().parent.parent / "README.md"


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
