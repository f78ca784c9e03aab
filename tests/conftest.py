import sys

import pytest


@pytest.fixture
def record_calls(monkeypatch):
    """Patch a function of ``bianchi.arith`` in every loaded ``bianchi`` module
    that imported it, and return the list of |argument| of each call."""

    def patch(fn):
        seen = []

        def recording(n):
            seen.append(abs(n))
            return fn(n)

        for name, mod in list(sys.modules.items()):
            if name.startswith("bianchi") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, recording)
        return seen

    return patch
