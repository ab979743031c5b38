"""Pytest configuration for the repository root.

Ensures the ``src`` layout package is importable even when the project has not
been pip-installed (the benchmark/test environment is offline, so an editable
install may not be possible), and gives every test a per-test timeout so a
deadlocked test of the parallel shard engine's forked processes aborts with a
traceback instead of hanging the whole run:

* with the ``pytest-timeout`` plugin installed (CI), every test without an
  explicit ``@pytest.mark.timeout`` gets :data:`DEFAULT_TEST_TIMEOUT`;
* without it (offline environments), a SIGALRM fallback fixture enforces the
  same default where the platform allows (POSIX main thread).
"""

import os
import signal
import sys
import threading

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Per-test timeout in seconds.  Generous: the slowest tier-1 tests (identity
#: sweeps, property-based suites) finish in a few seconds, so only a genuine
#: hang — a deadlocked pipe barrier, a worker that never finishes — hits it.
DEFAULT_TEST_TIMEOUT = 120

try:  # pragma: no cover - which branch runs depends on the environment
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_collection_modifyitems(config, items):
    if not _HAVE_PYTEST_TIMEOUT:
        return
    for item in items:
        if item.get_closest_marker("timeout") is None:
            item.add_marker(pytest.mark.timeout(DEFAULT_TEST_TIMEOUT))


@pytest.fixture(autouse=True)
def _fallback_test_timeout():
    """SIGALRM-based per-test timeout when pytest-timeout is unavailable."""
    if (
        _HAVE_PYTEST_TIMEOUT
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {DEFAULT_TEST_TIMEOUT}s fallback timeout"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEFAULT_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
