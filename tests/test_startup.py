"""What importing the package and the CLI costs a fresh process.

``import pmcode`` loads no numpy, importing ``pmcode.cli`` loads neither
the reporting module nor ``statistics``, and it keeps numpy's OpenBLAS
from starting a thread pool that pmcode never uses.  Each check runs in a
fresh interpreter, since this one has numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str, **env) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path; return its stdout."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=child_env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_import_pmcode_loads_no_numpy():
    assert run_fresh("import sys, pmcode; print('numpy' in sys.modules)") == "False"


def test_analysis_names_resolve_on_first_use():
    out = run_fresh(
        "import pmcode\n"
        "from pmcode import SparsityReport\n"
        "print(pmcode.certify.__module__, pmcode.encode_stripes.__module__, SparsityReport.__module__)"
    )
    assert out == "pmcode.report pmcode.analysis pmcode.report"


def test_cli_import_loads_no_reporting_code():
    out = run_fresh("import sys, pmcode.cli; print('pmcode.report' in sys.modules, 'statistics' in sys.modules)")
    assert out == "False False"


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "5", "--k", "3", "--d", "4"],
    ["analyze", "--n", "5", "--k", "3", "--d", "4"],
    ["bench", "--n", "5", "--k", "3", "--d", "4", "--mib", "0.01", "--reps", "1"],
], ids=["certify", "analyze", "bench"])
def test_reporting_commands_load_the_reporting_code(argv):
    out = run_fresh(f"import sys, pmcode.cli; print(pmcode.cli.main({argv!r}), 'pmcode.report' in sys.modules)")
    assert out.splitlines()[-1] == "0 True"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_starts_no_blas_threads():
    out = run_fresh(
        "import os, pmcode.cli\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))"
    )
    assert out == "1 1"


def test_cli_keeps_a_caller_set_thread_count():
    out = run_fresh("import os, pmcode.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                    OPENBLAS_NUM_THREADS="2")
    assert out == "2"
