"""numpy is the only runtime dependency: every absolute import in the
package is the standard library or numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "segadapt"


def test_imports_are_stdlib_or_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    foreign = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in allowed:
                    foreign.setdefault(path.name, []).append(name)
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"
