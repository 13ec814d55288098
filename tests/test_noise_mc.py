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
from fcqst import noise_mc, rng
from fcqst.exceptions import InvalidSizeError

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
    upper = noise_mc._upper_flat_index(cfg.n)
    t = cfg.transfer_time()

    def dense_column(h):
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w * t)) @ v[0]

    ideal = dense_column(base)
    for k in range(cfg.trials):
        noisy, _, _ = noise_mc._noisy_matrix(cfg, base, k, upper)
        assert abs(np.vdot(ideal, dense_column(noisy)) - overlaps[k]) < 1e-13


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
