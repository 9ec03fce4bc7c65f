"""The package's layers, read from its source: who imports numpy, ``pmcode.analysis``
and ``pmcode.report``, who calls the kernel, who touches the shard format, who asks a code
its class, and which modules each module may import.

The exact-math modules (``core`` and the rest) stay pure Python.  numpy is
imported by the bulk path, ``analysis``, and by ``shards``, whose sources
and sinks are its buffers; the command line loads it only through them.
``analysis`` is loaded by ``shards``, ``report``, the command line and the
lazy-name hook (``__getattr__``) of ``__init__``; only ``analysis`` calls
``apply_rows_bulk``, and the command line takes nothing from it but the
streaming loop, ``stream``.  Only ``shards`` reads or writes shard bytes:
no other module packs a ``struct`` or calls ``os.pread``, ``os.preadv`` or
``os.pwrite``.  Only ``linalg`` builds a ``Program``; the others compose one
with ``linalg.compose``.  ``report`` is loaded only by the command line's
reporting commands and by the lazy-name hook of ``__init__``, so the bulk
commands never load it.  Neither the command line, ``report`` nor
``construct`` asks a code its class (``isinstance``): a code carries its
``enc`` and ``column_permutation``.  Each module imports only the modules
below it in ``LAYERS``; ``__init__`` is exempt.  Imports inside functions
count.
"""

import ast
from pathlib import Path

import pmcode

PACKAGE = Path(pmcode.__file__).resolve().parent


def imports(tree) -> list[tuple[str, str]]:
    """(absolute module name, enclosing function or "") of every import in ``tree``.

    ``from X import y`` yields both X and X.y, so ``from . import analysis``
    names ``pmcode.analysis``.
    """
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, func) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = child.module or ""
                if child.level:
                    base = "pmcode" + (f".{base}" if base else "")
                found.append((base, func))
                found.extend((f"{base}.{alias.name}", func) for alias in child.names)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else func)

    visit(tree, "")
    return found


def users_of(module: str) -> set[str]:
    """The files that import ``module`` or a name in it, as "file" or "file:function"."""
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, func in imports(ast.parse(path.read_text())):
            if name == module or name.startswith(module + "."):
                users.add(f"{path.name}:{func}" if func else path.name)
    return users


def test_only_analysis_and_shards_import_numpy_and_only_shards_report_cli_and_the_hook_import_analysis():
    assert users_of("numpy") == {"analysis.py", "shards.py"}
    assert users_of("pmcode.analysis") == {"shards.py", "report.py", "cli.py", "__init__.py:__getattr__"}


def test_cli_takes_only_the_streaming_loop_from_analysis():
    names = {name for name, _ in imports(ast.parse((PACKAGE / "cli.py").read_text()))}
    assert {name for name in names if name.startswith("pmcode.analysis")} == {"pmcode.analysis", "pmcode.analysis.stream"}


def test_only_analysis_calls_the_kernel():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "apply_rows_bulk":
                callers.add(path.name)
    assert callers == {"analysis.py"}


def test_only_the_reporting_commands_and_the_hook_import_report():
    assert users_of("pmcode.report") == {
        "cli.py:cmd_certify", "cli.py:cmd_analyze", "cli.py:cmd_bench", "__init__.py:__getattr__",
    }


def test_the_command_line_and_the_reports_ask_no_code_its_class():
    callers = set()
    for name in ("cli.py", "report.py", "construct.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
                callers.add(f"{name}:{node.lineno}")
    assert callers == set()


# bottom to top: each module imports only the modules before it
LAYERS = ("errors", "field", "linalg", "core", "systematic", "construct", "analysis", "shards", "report", "cli")


def test_each_module_imports_only_the_layers_below_it():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert modules == sorted(LAYERS), "place a new module in LAYERS"
    upward = set()
    for layer, module in enumerate(LAYERS):
        for name, func in imports(ast.parse((PACKAGE / f"{module}.py").read_text())):
            parts = name.split(".")
            if parts[0] == "pmcode" and len(parts) > 1 and parts[1] not in LAYERS[:layer]:
                upward.add(f"{module}.py:{func} imports pmcode.{parts[1]}")
    assert upward == set()


SHARD_IO = {"os.pread", "os.preadv", "os.pwrite"}


def test_only_shards_reads_or_writes_shard_bytes():
    """Who calls ``os.pread``, ``os.preadv`` or ``os.pwrite``, or imports ``struct``."""
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if any(name == "struct" or name.startswith("struct.") for name, _ in imports(tree)):
            users.add(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in SHARD_IO:
                users.add(path.name)
    assert users == {"shards.py"}


def test_only_linalg_builds_a_program():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Program":
                callers.add(path.name)
    assert callers == {"linalg.py"}
