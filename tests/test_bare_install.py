"""A bare install (``pip install .``, no extras) must start.

``pyproject.toml`` declares NumPy as the only runtime dependency, so the
CLI may import nothing else outside the standard library. Each check
runs in a fresh interpreter; ``sys.modules["networkx"] = None`` makes
any ``import networkx`` raise ``ImportError``, as on a bare install.
"""

import os
import pathlib
import subprocess
import sys

_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_cli_imports_with_networkx_blocked():
    completed = _run(
        "import sys; sys.modules['networkx'] = None; "
        "import repro.cli, repro.faults, repro.noc"
    )
    assert completed.returncode == 0, completed.stderr


def test_cli_start_up_does_not_import_networkx():
    completed = _run(
        "import sys, repro.cli; assert 'networkx' not in sys.modules"
    )
    assert completed.returncode == 0, completed.stderr
