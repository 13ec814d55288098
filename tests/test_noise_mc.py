import hashlib
import itertools
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from fcqst import (
    NoiseConfig,
    build_h_opt,
    first_order_infidelity,
    fit_linear,
    fit_power_law,
    minimum_transfer_time,
    project_single_excitation,
    run_mc,
    sample_noisy_hamiltonian,
)
from fcqst import noise_mc, rng, spin_model, workers
from fcqst.exceptions import InvalidSizeError
from fcqst.propagator import evolve_source

from oracles import noisy_overlap


def test_zero_noise_reproduces_base():
    cfg = NoiseConfig(n=12, sigma_c=0.0, sigma_f=0.0, trials=1, seed=5)
    noisy = sample_noisy_hamiltonian(cfg, trial=0)
    base = project_single_excitation(build_h_opt(12, 1.0))
    assert np.array_equal(noisy.entries, base.entries)


def test_coupling_noise_touches_only_off_diagonals():
    cfg = NoiseConfig(n=10, sigma_c=0.2, sigma_f=0.0, trials=1, seed=5)
    noisy = sample_noisy_hamiltonian(cfg, trial=0)
    base = project_single_excitation(build_h_opt(10, 1.0))
    delta = noisy.entries - base.entries
    assert np.abs(np.diag(delta)).max() == 0.0
    assert np.abs(delta - delta.conj().T).max() == 0.0
    off = delta[np.triu_indices(10, 1)]
    assert np.abs(off).min() > 0.0  # every pair drew its own amplitude


def test_field_noise_touches_only_edge_diagonal_pattern():
    cfg = NoiseConfig(n=6, sigma_c=0.0, sigma_f=0.3, trials=1, seed=2)
    noisy = sample_noisy_hamiltonian(cfg, trial=0)
    base = project_single_excitation(build_h_opt(6, 1.0))
    delta = np.diag(noisy.entries - base.entries).real
    e1, en = 0.3 * rng.normals(rng.derive_key(2, 0, 1), 0, 2)
    assert abs(delta[0] - (-e1 + en)) < 1e-14
    assert abs(delta[-1] - (e1 - en)) < 1e-14
    assert np.abs(delta[1:-1] - (e1 + en)).max() < 1e-14


def test_samples_are_deterministic_and_trial_indexed():
    cfg = NoiseConfig(n=8, sigma_c=0.1, sigma_f=0.1, trials=4, seed=11)
    a = sample_noisy_hamiltonian(cfg, trial=2)
    b = sample_noisy_hamiltonian(cfg, trial=2)
    c = sample_noisy_hamiltonian(cfg, trial=3)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_trial_overlaps_trivial_cases():
    assert np.array_equal(noise_mc.trial_overlaps(NoiseConfig(n=7, trials=1)), [1.0 + 0.0j])

    base = project_single_excitation(build_h_opt(7, 1.0))
    t = minimum_transfer_time(7, 1.0)
    f = noisy_overlap(np.array(base.entries) + 2.5 * np.eye(7), base.entries, t)
    assert abs(abs(f) - 1.0) < 1e-12  # uniform shift is a global phase


def test_single_trial_frozen_value():
    # frozen by direct evaluation at this documented seed
    cfg = NoiseConfig(n=100, sigma_c=0.0, sigma_f=0.1, trials=1, seed=20240501)
    f = noise_mc.trial_overlaps(cfg)[0]
    assert abs(f - (0.9997871412849494 - 0.005088582440467282j)) < 1e-12
    assert abs((1 - abs(f)) - 1.9990920685308833e-4) < 1e-12
    assert abs(abs(1 - f) - 5.093032503921898e-3) < 1e-12


def test_first_order_infidelity_values():
    assert first_order_infidelity(0.4, 0.4, 50, 1.0) == 0.0
    expected = 0.2 * np.pi / np.sqrt(200.0)
    assert abs(first_order_infidelity(0.1, -0.1, 100, 1.0) - expected) < 1e-15
    assert abs(expected - 0.0444288293816) < 1e-10


def test_first_order_matches_dynamics_at_short_times():
    # the formula is the leading term before the transfer redistributes
    # population; at short times the paired agreement is sub-percent
    n, sigma_f, seed, trials = 100, 0.02, 7, 200
    base = project_single_excitation(build_h_opt(n, 1.0))
    t = 0.02 * minimum_transfer_time(n, 1.0)
    mc, fo = [], []
    for k in range(trials):
        cfg = NoiseConfig(n=n, sigma_f=sigma_f, trials=1, seed=seed)
        noisy = sample_noisy_hamiltonian(cfg, trial=k)
        mc.append(abs(1 - noisy_overlap(noisy.entries, base.entries, t)))
        e1, en = sigma_f * rng.normals(rng.derive_key(seed, k, 1), 0, 2)
        fo.append(abs((e1 - en) * t))
    ratio = np.mean(mc) / np.mean(fo)
    assert abs(ratio - 1.0) < 0.05


def test_first_order_transfer_time_suppression_is_stable():
    # over the full transfer the source and target phase contributions
    # cancel by mirror symmetry, leaving ~24% of the naive estimate; the
    # ratio is frozen from a paired-sample run
    n, sigma_f, seed, trials = 100, 0.02, 7, 300
    mc = np.abs(1 - noise_mc.trial_overlaps(
        NoiseConfig(n=n, sigma_f=sigma_f, trials=trials, seed=seed)))
    fo = []
    for k in range(trials):
        e1, en = sigma_f * rng.normals(rng.derive_key(seed, k, 1), 0, 2)
        fo.append(first_order_infidelity(e1, en, n, 1.0))
    ratio = np.mean(mc) / np.mean(fo)
    assert abs(ratio - 0.2409) < 0.02


def test_run_mc_zero_noise_exact_zero():
    stats = run_mc(NoiseConfig(n=30, trials=10, seed=1))
    assert stats.mean_infidelity == 0.0
    assert stats.std_error == 0.0
    for mean, _ in stats.all_means.values():
        assert abs(mean) < 1e-12


def test_run_mc_deterministic():
    cfg = NoiseConfig(n=20, sigma_c=0.1, sigma_f=0.05, trials=25, seed=77)
    a, b = run_mc(cfg), run_mc(cfg)
    assert a == b


def test_run_mc_std_error_scales_with_trials():
    small = run_mc(NoiseConfig(n=20, sigma_c=0.1, trials=400, seed=3))
    large = run_mc(NoiseConfig(n=20, sigma_c=0.1, trials=800, seed=3))
    ratio = small.std_error / large.std_error
    assert 1.15 < ratio < 1.75  # ~sqrt(2) for iid trials


def test_overlaps_bounded_by_unitarity():
    cfg = NoiseConfig(n=15, sigma_c=0.3, sigma_f=0.3, trials=50, seed=9)
    overlaps = noise_mc.trial_overlaps(cfg)
    assert np.abs(overlaps).max() <= 1.0 + 1e-12


def test_ensemble_path_matches_single_trial_path():
    # run_mc's vectorized loop and the per-trial sampler draw the same
    # substreams, so per-trial overlaps must agree bitwise-close
    cfg = NoiseConfig(n=9, sigma_c=0.15, sigma_f=0.2, trials=6, seed=31)
    overlaps = noise_mc.trial_overlaps(cfg)
    base = project_single_excitation(cfg.base_model())
    t = cfg.transfer_time()
    for k in range(cfg.trials):
        f = noisy_overlap(sample_noisy_hamiltonian(cfg, trial=k).entries, base.entries, t)
        assert abs(f - overlaps[k]) < 1e-14


def test_infidelity_invariant_under_uniform_diagonal_shift():
    base = project_single_excitation(build_h_opt(9, 1.0))
    cfg = NoiseConfig(n=9, sigma_c=0.2, trials=1, seed=13)
    noisy = sample_noisy_hamiltonian(cfg, trial=0)
    t = minimum_transfer_time(9, 1.0)
    f1 = noise_mc.trial_overlaps(cfg)[0]
    f2 = noisy_overlap(np.array(noisy.entries) + 1.7 * np.eye(9), base.entries, t)
    assert abs(abs(f1) - abs(f2)) < 1e-12


def test_mean_infidelity_monotone_in_sigma():
    means = []
    for sigma in (0.05, 0.1, 0.2):
        stats = run_mc(NoiseConfig(n=20, sigma_c=sigma, trials=300, seed=21),
                       definition="abs_one_minus_overlap")
        means.append((stats.mean_infidelity, stats.std_error))
    for (m1, s1), (m2, s2) in zip(means, means[1:]):
        assert m2 >= m1 - 3.0 * (s1 + s2)


def test_run_mc_definition_tagging():
    cfg = NoiseConfig(n=12, sigma_c=0.1, trials=20, seed=4)
    default = run_mc(cfg)
    assert default.infidelity_definition == "one_minus_abs_overlap"
    abs_metric = run_mc(cfg, definition="abs_one_minus_overlap")
    assert abs_metric.mean_infidelity == default.all_means["abs_one_minus_overlap"][0]
    with pytest.raises(InvalidSizeError):
        run_mc(cfg, definition="nope")


def test_noise_config_validation():
    with pytest.raises(InvalidSizeError):
        NoiseConfig(n=10, trials=0)
    with pytest.raises(InvalidSizeError):
        NoiseConfig(n=10, sigma_c=-0.1)
    with pytest.raises(InvalidSizeError):
        NoiseConfig(n=10, hamiltonian="other")
    # NaN sigma used to skip the noise silently (nan > 0 is False) and inf
    # escaped as a LinAlgError from eigh
    for field, bad in (("sigma_c", (np.nan, np.inf, -0.1)), ("sigma_f", (np.nan, np.inf, -0.1)),
                       ("j0", (np.nan, np.inf, 0.0, -1.0))):
        for value in bad:
            with pytest.raises(InvalidSizeError):
                NoiseConfig(n=10, **{field: value})
    # the noiseless shortcut used to report zero infidelity without a model
    for n in (2, 0, -1):
        with pytest.raises(InvalidSizeError, match="n >= 3"):
            NoiseConfig(n=n)


def test_trial_overlaps_match_per_trial_dense_path():
    # one criterion-9 configuration: every Krylov overlap against the
    # per-trial dense eigh columns
    cfg = NoiseConfig(n=400, sigma_c=0.1, sigma_f=0.0, trials=50, seed=42)
    overlaps = noise_mc.trial_overlaps(cfg)
    base = np.ascontiguousarray(project_single_excitation(cfg.base_model()).entries.real)
    t = cfg.transfer_time()

    def dense_column(h):
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w * t)) @ v[0]

    ideal = dense_column(base)
    for k in range(cfg.trials):
        noisy = sample_noisy_hamiltonian(cfg, k).entries.real
        assert abs(np.vdot(ideal, dense_column(noisy)) - overlaps[k]) < 1e-13


def test_ensemble_matches_frozen_digest():
    # SHA-256 of the overlap bytes, frozen before the trials went parallel
    cfg = NoiseConfig(n=500, sigma_c=0.1, sigma_f=0.1, trials=8, seed=42)
    digest = hashlib.sha256(noise_mc.trial_overlaps(cfg).tobytes()).hexdigest()
    assert digest == "aa23e1dd3758116bd8f5151b17b52a7eb59171dad1e8b488f1e295891b7dc46f"


def test_trial_workers_policy(monkeypatch, two_cpus_one_blas_thread):
    above = noise_mc.PARALLEL_MIN_N + 1
    assert noise_mc._trial_workers(NoiseConfig(n=above, sigma_c=0.1, trials=20)) == 2
    assert noise_mc._trial_workers(NoiseConfig(n=above, sigma_c=0.1, trials=1)) == 1
    assert noise_mc._trial_workers(NoiseConfig(n=noise_mc.PARALLEL_MIN_N, trials=20)) == 1
    # workers x BLAS threads stays within the CPUs; an unset or malformed cap
    # falls through to the next variable, and no cap means one thread per CPU
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert noise_mc._trial_workers(NoiseConfig(n=above, trials=20)) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "x")
    assert noise_mc._trial_workers(NoiseConfig(n=above, trials=20)) == 2
    for var in workers.BLAS_THREAD_VARS:
        monkeypatch.delenv(var)
    assert noise_mc._trial_workers(NoiseConfig(n=above, trials=20)) == 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_parallel_trials_equal_per_trial_path(monkeypatch, workers):
    # above the crossover every worker count gives the per-trial overlaps exactly
    cfg = NoiseConfig(n=noise_mc.PARALLEL_MIN_N + 1, sigma_c=0.1, sigma_f=0.05, trials=9, seed=5)
    monkeypatch.setattr(noise_mc, "_trial_workers", lambda c: workers)
    overlaps = noise_mc.trial_overlaps(cfg)
    t = cfg.transfer_time()
    base = np.ascontiguousarray(project_single_excitation(cfg.base_model()).entries.real)
    ideal, _ = evolve_source(base, t)
    expected = [np.vdot(ideal, evolve_source(sample_noisy_hamiltonian(cfg, k).entries, t)[0])
                for k in range(cfg.trials)]
    assert np.array_equal(overlaps, expected)


def test_shared_trial_counter_hands_out_each_trial_once(monkeypatch):
    # more workers than CPUs and a short switch interval: a lost update of
    # the shared counter would repeat or skip a trial index
    cfg = NoiseConfig(n=12, sigma_c=0.1, sigma_f=0.1, trials=300, seed=8)
    serial = noise_mc.trial_overlaps(cfg)
    filled = []
    real_fill = noise_mc._EnsembleInputs.fill

    def recording_fill(self, out, cfg, trial):
        filled.append(trial)
        return real_fill(self, out, cfg, trial)

    monkeypatch.setattr(noise_mc._EnsembleInputs, "fill", recording_fill)
    monkeypatch.setattr(noise_mc, "_trial_workers", lambda c: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = noise_mc.trial_overlaps(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(filled) == list(range(cfg.trials))
    assert np.array_equal(parallel, serial)


def test_sweep_at_one_configuration_builds_once(monkeypatch):
    # a sigma_c x sigma_f sweep at one (hamiltonian, n, j0), as `fcqst noise`
    # runs it, builds the base model and its ideal column once
    builds, sources = [], []
    real_builder = spin_model.HAMILTONIANS["opt"]
    real_evolve = noise_mc.evolve_source

    def spy_builder(n, j0):
        builds.append((n, j0))
        return real_builder(n, j0)

    def spy_evolve(h, t):
        sources.append(t)
        return real_evolve(h, t)

    monkeypatch.setitem(spin_model.HAMILTONIANS, "opt", spy_builder)
    monkeypatch.setattr(noise_mc, "evolve_source", spy_evolve)
    trials = 3
    for sigma_c, sigma_f in itertools.product((0.0, 0.05, 0.1), (0.0, 0.1)):
        cfg = NoiseConfig(n=12, sigma_c=sigma_c, sigma_f=sigma_f, trials=trials, seed=6)
        run_mc(cfg)
        sample_noisy_hamiltonian(cfg, 1)
    assert builds == [(12, 1.0)]
    assert len(sources) == 5 * trials + 1  # five noisy configurations, one ideal column


def test_changing_any_key_field_rebuilds():
    info = noise_mc._ensemble_inputs.cache_info
    configs = [NoiseConfig(n=12, sigma_c=0.1, seed=1), NoiseConfig(n=12, sigma_f=0.2, seed=2),
               NoiseConfig(n=12, sigma_c=0.1, hamiltonian="opt-prime"),
               NoiseConfig(n=12, sigma_c=0.1, hamiltonian="opt_prime"),
               NoiseConfig(n=13, sigma_c=0.1, hamiltonian="opt_prime"),
               NoiseConfig(n=13, j0=0.5, sigma_c=0.1, hamiltonian="opt_prime"),
               NoiseConfig(n=12, sigma_c=0.1)]
    misses = []
    for cfg in configs:
        noise_mc.trial_overlaps(cfg)
        misses.append(info().misses)
        assert info().currsize == 1
    # sigma, seed and the spelling of the builder's name share a key; the
    # last configuration was evicted by the ones between
    assert misses == [1, 1, 2, 2, 3, 4, 5]


def test_cached_arrays_are_read_only():
    cfg = NoiseConfig(n=9, sigma_c=0.1, seed=3)
    noise_mc.trial_overlaps(cfg)
    inputs = noise_mc._inputs_of(cfg)
    for name in ("ideal", "upper", "lower", "base_upper", "base_diag"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(inputs, name)[0] = 0


def test_warm_cache_gives_the_cold_cache_results():
    cfg = NoiseConfig(n=noise_mc.PARALLEL_MIN_N + 1, sigma_c=0.1, sigma_f=0.1, trials=4, seed=9)
    other = NoiseConfig(n=20, sigma_c=0.1, trials=2, seed=9)
    cold = noise_mc.trial_overlaps(cfg)
    assert np.array_equal(noise_mc.trial_overlaps(cfg), cold)
    noise_mc.trial_overlaps(other)  # evicts cfg's inputs
    assert np.array_equal(noise_mc.trial_overlaps(cfg), cold)

    noise_mc._ensemble_inputs.cache_clear()
    before = sample_noisy_hamiltonian(cfg, 3)
    noise_mc._ensemble_inputs.cache_clear()
    run_mc(cfg)
    after = sample_noisy_hamiltonian(cfg, 3)
    assert np.array_equal(after.entries, before.entries)
    assert after.vacuum_phase_rate == before.vacuum_phase_rate


class _TrialFailure(Exception):
    pass


@pytest.mark.parametrize("failing", ["helper", "main"])
def test_failing_worker_fails_the_call_and_leaves_no_thread(monkeypatch, two_cpus_one_blas_thread,
                                                            failing):
    cfg = NoiseConfig(n=noise_mc.PARALLEL_MIN_N + 1, sigma_c=0.1, trials=20, seed=3)
    assert noise_mc._trial_workers(cfg) == 2
    real_fill = noise_mc._EnsembleInputs.fill

    def flaky(self, out, cfg, trial):
        # fills run only inside trials, so a warm or cold cache fails the same way
        on_main = threading.current_thread() is threading.main_thread()
        if on_main == (failing == "main"):
            raise _TrialFailure(failing)
        time.sleep(0.005)  # leave trials for the helper
        return real_fill(self, out, cfg, trial)

    monkeypatch.setattr(noise_mc._EnsembleInputs, "fill", flaky)
    before = threading.active_count()
    with pytest.raises(_TrialFailure, match=failing):
        run_mc(cfg)
    assert threading.active_count() == before


def test_worker_warning_is_raised_in_the_caller(monkeypatch, two_cpus_one_blas_thread):
    # under an "error" filter a helper's RuntimeWarning surfaces in the caller
    cfg = NoiseConfig(n=noise_mc.PARALLEL_MIN_N + 1, sigma_c=0.1, trials=6, seed=3)
    real = noise_mc.evolve_source

    def warns(h, t):
        if threading.current_thread() is not threading.main_thread():
            np.float64(1.0) / np.float64(0.0)
        else:
            time.sleep(0.005)
        return real(h, t)

    monkeypatch.setattr(noise_mc, "evolve_source", warns)
    before = threading.active_count()
    with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="divide by zero"):
        warnings.simplefilter("error", RuntimeWarning)
        noise_mc.trial_overlaps(cfg)
    assert threading.active_count() == before


def test_fit_power_law_exact():
    ns = [10, 20, 40, 80]
    fit = fit_power_law([(n, 3.0 * n ** -0.5) for n in ns])
    exponent, prefactor = fit.params
    assert abs(exponent + 0.5) < 1e-12
    assert abs(prefactor - 3.0) < 1e-12
    assert abs(fit.r2 - 1.0) < 1e-12


def test_fit_power_law_constant_data():
    fit = fit_power_law([(n, 2.0) for n in (1, 10, 100)])
    assert abs(fit.params[0]) < 1e-12


def test_fit_power_law_guards():
    with pytest.raises(InvalidSizeError):
        fit_power_law([(1, 1.0), (2, 2.0)])
    with pytest.raises(InvalidSizeError):
        fit_power_law([(1, 1.0), (2, -2.0), (3, 3.0)])
    with pytest.raises(InvalidSizeError):
        fit_power_law([(0, 1.0), (2, 2.0), (3, 3.0)])


def test_fit_linear_exact_and_degenerate():
    fit = fit_linear([(s, 2.0 * s) for s in (0.1, 0.2, 0.3, 0.4)])
    slope, intercept = fit.params
    assert abs(slope - 2.0) < 1e-12
    assert abs(intercept) < 1e-12
    assert abs(fit.r2 - 1.0) < 1e-12
    assert not fit.degenerate

    degenerate = fit_linear([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])
    assert degenerate.degenerate
    assert degenerate.to_json_dict()["model"] == "linear"


@pytest.mark.parametrize("fit", [fit_power_law, fit_linear])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fits_reject_non_finite_points(fit, bad):
    good = [(10.0, 0.3), (20.0, 0.2), (40.0, 0.15), (80.0, 0.1)]
    for k in range(len(good)):
        for axis in (0, 1):
            pts = [list(p) for p in good]
            pts[k][axis] = bad
            with pytest.raises(InvalidSizeError, match="finite"):
                fit(pts)
    with pytest.raises(InvalidSizeError, match="needs >= 3 points, got 0"):
        fit([])
