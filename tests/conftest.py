import pytest

from fcqst import propagator


@pytest.fixture
def two_cpus_one_blas_thread(monkeypatch):
    """The environment in which usable_workers gives two workers for two or more tasks."""
    monkeypatch.setattr(propagator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(propagator.os, "cpu_count", lambda: 2)
    for var in propagator.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
