import pytest

from fcqst import noise_mc, workers


@pytest.fixture(autouse=True)
def cold_ensemble_cache():
    """Every test starts and ends with an empty noise-ensemble cache."""
    noise_mc._ensemble_inputs.cache_clear()
    yield
    noise_mc._ensemble_inputs.cache_clear()


@pytest.fixture
def two_cpus_one_blas_thread(monkeypatch):
    """The environment in which usable_workers gives two workers for two or more tasks."""
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(workers.os, "cpu_count", lambda: 2)
    for var in workers.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
