import ast
import sys
from pathlib import Path

import pue_forecast

PACKAGE_DIR = Path(pue_forecast.__file__).parent


def test_runtime_imports_only_numpy_and_stdlib():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    bad = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue  # package-relative imports
            bad += [f"{source.name}:{node.lineno} {r}" for r in roots if r not in allowed]
    assert not bad, f"imports outside numpy and the standard library: {bad}"
