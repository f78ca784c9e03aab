import os
import subprocess
import sys
from pathlib import Path

import pytest

import bianchi


@pytest.fixture
def record_calls(monkeypatch):
    """Patch a function of ``bianchi`` in every loaded ``bianchi`` module that
    imported it, and return the list of the first argument of each call, as
    |argument| when it is an integer."""

    def patch(fn):
        seen = []

        def recording(n, *args, **kwargs):
            seen.append(abs(n) if isinstance(n, int) else n)
            return fn(n, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("bianchi") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, recording)
        return seen

    return patch


@pytest.fixture
def run_python():
    """Run a snippet in a fresh interpreter that imports ``bianchi`` from this
    checkout, with any interpreter flags (such as -O) before -c; the result
    of ``subprocess.run``, which raises TimeoutExpired once ``timeout`` runs out."""
    src = str(Path(bianchi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def run(code, *flags, timeout=60):
        return subprocess.run(
            [sys.executable, *flags, "-c", code],
            env=env, capture_output=True, text=True, timeout=timeout,
        )

    return run
