import numpy as np
import pytest

from fcqst import min_time_bisection, minimum_transfer_time, optimize_pulse, transfer_fidelity
from fcqst.exceptions import InvalidSizeError
from fcqst.speed_search import _Problem, pulse_to_schedule
from fcqst.propagator import evolve_schedule
from fcqst.spin_model import EFFECTIVE3


def test_zero_time_gives_zero_fidelity():
    res = optimize_pulse(5, 1.0, 0.0, 4, 2, seed=0)
    assert res.best_fidelity == 0.0


def test_recovers_optimal_constant_pulse():
    n = 8
    t = minimum_transfer_time(n, 1.0)
    res = optimize_pulse(n, 1.0, t, 1, restarts=6, seed=2024, real_symmetric=True,
                         max_iters=300)
    assert res.best_fidelity >= 1.0 - 1e-6
    pulse = res.best_pulse
    a = np.sqrt(n - 2)
    # gauge freedom: the collective coupling sign is arbitrary, and the pair
    # (j1n, da) can be jointly negated; canonicalize before comparing
    jsym = abs(pulse.j1a[0].real)
    j1n, da = pulse.j1n[0].real, pulse.da[0]
    if j1n < 0:
        j1n, da = -j1n, -da
    assert abs(jsym - a) < 0.05
    assert abs(j1n - 1.0) < 0.05
    assert abs(da + 3.0) < 0.15


# the complex and the real-coupling search modes run through the same checks;
# a loop rather than a parametrization keeps each test's id stable
SEARCH_MODES = (False, True)  # real_couplings


def test_deterministic_given_seed():
    for real_couplings in SEARCH_MODES:
        kwargs = dict(n_segments=3, restarts=3, seed=99, max_iters=25,
                      real_couplings=real_couplings)
        a = optimize_pulse(4, 1.0, 0.8, **kwargs)
        b = optimize_pulse(4, 1.0, 0.8, **kwargs)
        assert a.best_fidelity == b.best_fidelity
        assert a.evaluations == b.evaluations
        assert np.array_equal(a.best_pulse.j1a, b.best_pulse.j1a)
        assert np.array_equal(a.best_pulse.da, b.best_pulse.da)


def test_projection_idempotent_never_grows():
    for real_couplings in SEARCH_MODES:
        problem = _Problem(6, 1.0, 1.0, 4, "real" if real_couplings else "complex")
        gen = np.random.default_rng(0)
        for _ in range(25):
            x = gen.normal(scale=5.0, size=problem.dim)
            p1 = problem.project(x)
            p2 = problem.project(p1)
            assert np.abs(p1 - p2).max() < 1e-14
            before = problem.pulse(x)
            after = problem.pulse(p1)
            assert np.abs(after.j1a).max() <= np.abs(before.j1a).max() + 1e-12
            assert np.abs(after.j1n).max() <= np.abs(before.j1n).max() + 1e-12
            # projected controls respect the bounds
            assert max(after.bound_report().values()) <= 1.0 + 1e-12
            if real_couplings:
                for name in ("j1a", "jan", "j1n"):
                    assert np.all(getattr(after, name).imag == 0.0)


def test_result_consistent_with_independent_propagation():
    for real_couplings in SEARCH_MODES:
        res = optimize_pulse(5, 1.0, 0.9, 3, restarts=2, seed=7, max_iters=40,
                             real_couplings=real_couplings)
        u = evolve_schedule(pulse_to_schedule(res.best_pulse))
        recomputed = transfer_fidelity(u, EFFECTIVE3)
        assert res.best_fidelity <= recomputed + 1e-12
        assert abs(res.best_fidelity - recomputed) < 1e-12


def test_reported_pulse_within_bounds():
    res = optimize_pulse(6, 1.0, 1.1, 4, restarts=3, seed=5, max_iters=60)
    assert max(res.best_pulse.bound_report().values()) <= 1.0 + 1e-12


def test_suboptimal_time_cannot_reach_unit_fidelity():
    # at 0.9 of the analytic minimum the bounded search stays measurably
    # short of 1 (more restarts only approach the sub-unity ceiling)
    n = 3
    t = 0.9 * minimum_transfer_time(n, 1.0)
    res = optimize_pulse(n, 1.0, t, 8, restarts=8, seed=31, max_iters=120)
    assert res.best_fidelity < 1.0 - 1e-4


def test_invalid_arguments():
    with pytest.raises(InvalidSizeError):
        optimize_pulse(2, 1.0, 1.0, 4, 1, seed=0)
    with pytest.raises(InvalidSizeError):
        optimize_pulse(4, 1.0, -1.0, 4, 1, seed=0)
    with pytest.raises(InvalidSizeError):
        optimize_pulse(4, 1.0, 1.0, 0, 1, seed=0)
    with pytest.raises(InvalidSizeError):
        optimize_pulse(4, 1.0, 1.0, 4, 1, seed=0, real_symmetric=True, real_couplings=True)
    # j0 = -1 used to run and return 0.516, and NaN raised a LinAlgError
    for j0 in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(InvalidSizeError, match="j0"):
            optimize_pulse(4, j0, 1.0, 4, 1, seed=0)
    # NaN and inf used to raise a TypeError after the search
    for total_time in (np.nan, np.inf):
        with pytest.raises(InvalidSizeError, match="total_time"):
            optimize_pulse(4, 1.0, total_time, 4, 1, seed=0)


def test_bisection_rejects_invalid_coupling_scale():
    # j0 = 0 used to raise a TypeError from an infinite time window
    for j0 in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidSizeError, match="j0"):
            min_time_bisection(4, j0, 1.0 - 1e-3, 1e-2)


def test_single_fidelity_is_the_batch_path():
    gen = np.random.default_rng(3)
    for controls in ("complex", "real", "real_symmetric"):
        problem = _Problem(4, 1.0, 1.1, 8, controls)
        xs = problem.project(gen.normal(scale=2.0, size=(12, problem.dim)))
        batch = problem.fidelity_batch(xs)
        for x, f in zip(xs, batch):
            assert problem.fidelity(x) == problem.fidelity_batch(x[None])[0]
            assert abs(problem.fidelity(x) - f) <= 1e-14
            pulse = problem.pulse(x)
            assert np.array_equal(pulse.matrices(), problem.matrices(x))
            assert not np.shares_memory(pulse.j1a, pulse.jan)
            assert not any(np.shares_memory(getattr(pulse, name), x)
                           for name in ("j1a", "jan", "j1n", "d1", "da", "dn"))


def test_bisection_samples_keep_their_pulses():
    res = min_time_bisection(3, 1.0, 1.0 - 1e-3, 0.1, n_segments=2, restarts=2,
                             seed=4, max_iters=30, real_couplings=True)
    assert res.samples
    for s in res.samples:
        assert s.best_pulse.total_time == s.total_time
        assert np.all(s.best_pulse.j1a.imag == 0.0)
    # the pulse takes no part in comparisons, so sample tuples still compare
    again = min_time_bisection(3, 1.0, 1.0 - 1e-3, 0.1, n_segments=2, restarts=2,
                               seed=4, max_iters=30, real_couplings=True)
    assert again.samples == res.samples


def test_bisection_trivial_target():
    res = min_time_bisection(4, 1.0, 0.0, 1e-3)
    assert res.t_star == 0.0
    assert res.samples == ()


def test_bisection_rejects_weak_targets():
    with pytest.raises(InvalidSizeError):
        min_time_bisection(4, 1.0, 0.5, 1e-3)
    with pytest.raises(InvalidSizeError):
        min_time_bisection(4, 1.0, 1.0, 1e-3)
    with pytest.raises(InvalidSizeError):
        min_time_bisection(4, 1.0, 0.99, -1.0)
    with pytest.raises(InvalidSizeError):
        min_time_bisection(4, 1.0, 0.99, np.nan)


def test_bisection_locates_transfer_window_coarsely():
    # coarse, fast version of the empirical speed-limit scan.  Note the
    # search can legitimately land a few percent BELOW the constant-protocol
    # reference pi/sqrt(2n): bang-singular pulses with complex phases reach
    # near-unit fidelity slightly earlier (see the acceptance module).
    n = 3
    reference = minimum_transfer_time(n, 1.0)
    res = min_time_bisection(n, 1.0, 1.0 - 1e-5, 0.02, n_segments=4,
                             restarts=4, seed=1, max_iters=120)
    assert reference * 0.9 <= res.t_star <= reference * 1.08
    assert all(s.total_time <= 2 * np.pi / np.sqrt(2 * n) + 1e-12 for s in res.samples)
    assert all(0.0 <= s.best_fidelity <= 1.0 + 1e-12 for s in res.samples)
