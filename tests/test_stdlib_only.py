"""The runtime imports nothing outside the standard library, and the CLI
nothing it does not need at start-up."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kminusone"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [(path.name, name) for path in sources for name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def _loaded_by_cli_import(*modules):
    # a fresh interpreter without site, whose .pth files may import these
    # modules themselves
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kminusone.cli; "
            "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))")
    return subprocess.run([sys.executable, "-S", "-c", code, str(PACKAGE.parent), *modules],
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_random():
    # the probe columns of invariant_factors come from a formula, so
    # importing the CLI costs no random module at start-up
    assert _loaded_by_cli_import("random") == "\n"


def test_cli_import_generates_no_dataclasses():
    # records.record replaces @dataclass, which generates several methods per
    # class at import and loads inspect; annotations are strings, not typing
    assert _loaded_by_cli_import("dataclasses", "inspect", "typing") == "\n"
