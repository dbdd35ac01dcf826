"""Shared pytest plumbing for the repro test suite."""

import os
import signal
import time

import pytest

from repro import obs


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite tests/golden/*.txt from the current code instead "
             "of comparing against them")


@pytest.fixture(autouse=True)
def _zero_telemetry():
    """Every test starts and ends with telemetry off.

    The :mod:`repro.obs` switchboard is process-global; a test that
    configures it must not leak metrics or an active tracer into its
    neighbours.
    """
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def kill_pool_worker():
    """SIGKILL one worker of a pooled executor and wait until its pool
    has reaped it, so the pool is known to be broken."""
    def kill(executor):
        executor.warm()
        pid = executor._pool.submit(os.getpid).result(timeout=30)
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)  # a zombie still answers until reaped
            except ProcessLookupError:
                return pid
            time.sleep(0.01)
        raise AssertionError(f"pool worker {pid} was never reaped")
    return kill
