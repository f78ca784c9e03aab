import sys

import pytest


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
