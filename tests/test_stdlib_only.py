"""The runtime imports nothing outside the standard library, and the CLI
nothing it does not need at start-up; in the tests, only alarm_budget arms
SIGALRM."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kminusone"
TESTS = Path(__file__).resolve().parent
# what arms SIGALRM: a timer, an alarm, or a handler installed for the signal
ARMING = {"setitimer", "alarm", "SIGALRM"}


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


# prints the module whose code raised each compile event of source text, and
# the file name given to compile
_COMPILES = """import sys
sys.path.insert(0, sys.argv[1])
seen = []
def hook(event, args):
    if event == "compile" and isinstance(args[0], (str, bytes)):
        seen.append((sys._getframe(1).f_globals.get("__name__"), args[1]))
sys.addaudithook(hook)
import kminusone.cli
for module, filename in seen:
    print(module, filename)
"""


def test_cli_import_compiles_no_source_text():
    # records compile their methods on first use, so importing the CLI
    # generates no code: source text compiled from a kminusone module is code
    # generated at import.  Compiling the package's own files, when no
    # bytecode is cached, is the import system's, and the rest comes from
    # the standard library (two namedtuple snippets from collections).
    out = subprocess.run([sys.executable, "-S", "-c", _COMPILES, str(PACKAGE.parent)],
                         capture_output=True, text=True, check=True).stdout
    events = [line.split(" ", 1) for line in out.splitlines()]
    assert [e for e in events if e[0].partition(".")[0] == "kminusone"] == []
    generated = {module.partition(".")[0] for module, filename in events if filename == "<string>"}
    assert generated <= sys.stdlib_module_names  # {"collections"} on Python 3.11


def test_cli_import_loads_no_argparse():
    # run_cli imports argparse when it parses a command line; importing the
    # CLI, as the in-process benchmark runners do, does not pay for it
    assert _loaded_by_cli_import("argparse") == "\n"


def _sigalrm_uses(path: Path):
    """Lines that use ARMING, from the signal module or one bound to it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "signal"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "signal":
            if any(alias.name in ARMING | {"*"} for alias in node.names):
                yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr in ARMING
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            yield node.lineno


def test_only_alarm_budget_arms_sigalrm():
    # every SIGALRM budget in the tests is alarm_budget.budget, whose timer
    # repeats until its block ends: a one-shot timer armed elsewhere loses
    # its alarm to a finalizer or gc callback that swallows the exception
    armed = {path.name: lines for path in sorted(TESTS.rglob("*.py"))
             if (lines := list(_sigalrm_uses(path)))}
    assert set(armed) == {"alarm_budget.py"}, armed
