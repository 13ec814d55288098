"""End-to-end acceptance criteria.

Each test prints one ``ACCEPTANCE <k> <PASS|FAIL>`` line (visible with
``pytest -s`` and in failure output) and asserts both the quantitative
criterion and its runtime budget.

Criterion 10 checks the speed limit on the "real" control class
(``controls="real"``, a key of ``speed_search.CONTROL_CLASSES``): real
couplings of either sign under their amplitude bounds, with free real
single-qubit fields; the time-reversal symmetric class, whose loop flux
arg(j1a jan conj(j1n)) is 0 or pi.  The paper proves the bound on a
subclass it does not name in its abstract; this class is the repository's
reading of it.  On that class the search confirms pi/(j0 sqrt(2n))
empirically.  The complex class cannot be meant: a loop flux of -pi/2
beats the reference, at n = 3 in closed form through the chiral triangle
(unit transfer at 0.9428 of the reference).
test_criterion_10_counterexample_documentation pins that fact.
"""

import dataclasses
import time

import numpy as np
import pytest

from fcqst import (
    NoiseConfig,
    build_h_opt,
    case_hamiltonian,
    case_minimum_time,
    case_stationary_solution,
    case_unitary,
    evolve_constant,
    fit_linear,
    fit_power_law,
    lr_commutator_check,
    min_time_bisection,
    minimum_transfer_time,
    optimize_pulse,
    project_full_space,
    project_single_excitation,
    qb_residuals,
    reduce_to_effective,
    run_mc,
)
from fcqst.spin_model import EFFECTIVE3, HAMILTONIANS, SINGLE_EXCITATION
from fcqst.propagator import evolve_schedule, transfer_fidelity
from fcqst.speed_search import PulseParams, pulse_to_schedule


def _report(num, passed, detail, elapsed):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {marker}: {detail} [{elapsed:.2f}s]")


def test_criterion_01_perfect_transfer_at_optimal_time():
    start = time.perf_counter()
    worst = 1.0
    for n in (3, 4, 8, 16, 50, 100):
        t = minimum_transfer_time(n, 1.0)
        for builder in HAMILTONIANS.values():
            u = evolve_constant(project_single_excitation(builder(n, 1.0)), t)
            worst = min(worst, transfer_fidelity(u, SINGLE_EXCITATION))
    elapsed = time.perf_counter() - start
    ok = worst >= 1.0 - 1e-9 and elapsed < 1.0
    _report(1, ok, f"perfect transfer at T, worst fidelity {worst:.3e}", elapsed)
    assert worst >= 1.0 - 1e-9
    assert elapsed < 1.0


def test_criterion_02_suboptimal_time_sharp_window():
    start = time.perf_counter()
    best = 0.0
    for n in (3, 4, 8, 16, 50, 100):
        t = 0.95 * minimum_transfer_time(n, 1.0)
        for builder in HAMILTONIANS.values():
            u = evolve_constant(project_single_excitation(builder(n, 1.0)), t)
            best = max(best, transfer_fidelity(u, SINGLE_EXCITATION))
    elapsed = time.perf_counter() - start
    ok = best <= 1.0 - 1e-4 and elapsed < 1.0
    _report(2, ok, f"sharp window at 0.95 T, best fidelity 1-{1 - best:.3e}", elapsed)
    assert best <= 1.0 - 1e-4
    assert elapsed < 1.0


def test_criterion_03_case_table_reproduction():
    start = time.perf_counter()
    checks = 0
    for n in (3, 4, 8, 16, 50):
        for j0 in (0.5, 1.0, 2.0):
            assert case_minimum_time(6, n, j0) == pytest.approx(np.pi / (2 * j0), rel=1e-15)
            assert case_minimum_time(8, n, j0) == pytest.approx(
                np.pi / (j0 * np.sqrt(2 * n)), rel=1e-15)
            for jbar in (0.0, 0.25 * j0, 0.8 * j0):
                expected = np.pi / np.sqrt(2 * (n - 2) * j0 ** 2 + 4 * jbar ** 2)
                assert case_minimum_time(7, n, j0, j1n_bar=jbar) == pytest.approx(
                    expected, rel=1e-15)
            gap = abs(case_minimum_time(7, n, j0, j1n_bar=j0) - case_minimum_time(8, n, j0))
            assert gap <= 1e-14
            for case_id in (1, 2, 3, 4, 5):
                assert case_minimum_time(case_id, n, j0) is None
            checks += 1
    elapsed = time.perf_counter() - start
    _report(3, True, f"case catalog times over {checks} (n, j0) points", elapsed)


def test_criterion_04_analytic_vs_numeric_unitaries():
    start = time.perf_counter()
    worst = 0.0
    n, j0 = 8, 1.0

    t6 = case_minimum_time(6, n, j0)
    h6 = case_hamiltonian(6, n, j0, phi_1n=0.4).sector_matrix()
    for t in np.linspace(0.0, 2 * t6, 100):
        diff = case_unitary(6, n, j0, t, phi_1n=0.4) - evolve_constant(h6, t)
        worst = max(worst, float(np.abs(diff).max()))

    for jbar, c1a in ((0.6, None), (1.0, None), (0.8, 2.1)):
        t7 = case_minimum_time(7, n, j0, j1n_bar=jbar)
        h7 = case_hamiltonian(7, n, j0, j1n_bar=jbar, c1a=c1a).sector_matrix()
        for t in np.linspace(0.0, 2 * t7, 100):
            diff = case_unitary(7, n, j0, t, j1n_bar=jbar, c1a=c1a) \
                - evolve_constant(h7, t)
            worst = max(worst, float(np.abs(diff).max()))

    # the saturated case agrees with the optimal 3-level matrix up to the
    # recorded diagonal frame exp(-3 i j0 t) absorbed into the corner levels
    h_opt = reduce_to_effective(build_h_opt(n, j0)).sector_matrix()
    t8 = case_minimum_time(8, n, j0)
    for t in np.linspace(0.0, 2 * t8, 100):
        diff = case_unitary(7, n, j0, t, j1n_bar=j0) * np.exp(3j * j0 * t) \
            - evolve_constant(h_opt, t)
        worst = max(worst, float(np.abs(diff).max()))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(4, ok, f"closed forms vs eigendecomposition, max deviation {worst:.2e}",
            elapsed)
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_05_qb_residuals_and_sensitivity():
    start = time.perf_counter()
    n, j0, grid = 4, 1.0, 1000
    h, mult = case_stationary_solution(8, n, j0)
    t = case_minimum_time(8, n, j0)
    segments = [(t / grid, h)] * grid
    report = qb_residuals(segments, [mult] * grid, n, j0)
    stationary_ok = report.max_residual <= 1e-8

    # perturbing any multiplier by 1% (zero-valued ones by 1% of the common
    # scale) must drive at least one residual above 1e-3
    scale = mult.lam1a
    sensitivities = []
    for name in ("lam1", "lam2", "lam1a", "laman", "lam1n"):
        value = getattr(mult, name)
        bumped = value * 1.01 if value != 0.0 else 0.01 * scale
        perturbed = dataclasses.replace(mult, **{name: bumped})
        rep = qb_residuals(segments, [perturbed] * grid, n, j0)
        sensitivities.append(rep.max_residual)
    sensitive_ok = min(sensitivities) > 1e-3

    elapsed = time.perf_counter() - start
    ok = stationary_ok and sensitive_ok and elapsed < 1.0
    _report(5, ok, f"stationary residual {report.max_residual:.2e}, "
                   f"weakest 1% sensitivity {min(sensitivities):.2e}", elapsed)
    assert stationary_ok
    assert sensitive_ok
    assert elapsed < 1.0


def test_criterion_06_sector_equivalence_oracle():
    start = time.perf_counter()
    worst = 0.0
    for n in range(3, 9):
        t = minimum_transfer_time(n, 1.0) * 0.77  # mid-transfer, amplitudes generic
        for builder in HAMILTONIANS.values():
            model = builder(n, 1.0)
            u_full = evolve_constant(project_full_space(model), t)
            u_sect = evolve_constant(project_single_excitation(model), t)
            eff = reduce_to_effective(model)
            u_eff = evolve_constant(eff.sector_matrix(), t) * np.exp(-1j * eff.frame_shift * t)
            amp_full = u_full[1 << (n - 1), 1]
            amp_sect = u_sect[-1, 0]
            amp_eff = u_eff[2, 0]
            worst = max(worst, abs(amp_full - amp_sect), abs(amp_sect - amp_eff))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(6, ok, f"full vs sector vs effective amplitudes, max gap {worst:.2e}",
            elapsed)
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_07_lr_commutator_signature():
    start = time.perf_counter()
    value = lr_commutator_check(build_h_opt(5, 1.0), minimum_transfer_time(5, 1.0))
    elapsed = time.perf_counter() - start
    gap = abs(abs(value) - 2.0)
    ok = gap <= 1e-8 and elapsed < 1.0
    _report(7, ok, f"commutator signature |<[sy_N(T), sx_1]>| = {abs(value):.12f}",
            elapsed)
    assert gap <= 1e-8
    assert elapsed < 1.0


def test_criterion_08_noise_robustness_number():
    start = time.perf_counter()
    cfg = NoiseConfig(n=500, j0=1.0, sigma_c=0.1, sigma_f=0.1, trials=1000, seed=42)
    stats = run_mc(cfg)  # headline metric: 1 - |F|
    mean, se = stats.mean_infidelity, stats.std_error
    abs_mean, abs_se = stats.all_means["abs_one_minus_overlap"]
    elapsed = time.perf_counter() - start
    ok = mean <= 0.005 + 3 * se and abs_mean <= 0.005 + 3 * abs_se and elapsed <= 300
    _report(8, ok, f"n=500 noise: mean(1-|F|)={mean:.2e}, mean|1-F|={abs_mean:.5f} "
                   f"(fidelity stays above 99.5%)", elapsed)
    assert mean <= 0.005 + 3 * se
    # the phase-sensitive average also clears the quoted robustness number
    assert abs_mean <= 0.005 + 3 * abs_se
    assert elapsed <= 300


def test_criterion_09_scaling_fits():
    start = time.perf_counter()
    # infidelity vs system size: power law with exponent near -1/2
    size_points = []
    for n in (25, 50, 100, 200, 400):
        stats = run_mc(NoiseConfig(n=n, sigma_c=0.1, sigma_f=0.0, trials=1000, seed=42),
                       definition="abs_one_minus_overlap")
        size_points.append((n, stats.mean_infidelity))
    power = fit_power_law(size_points)
    exponent = power.params[0]

    # infidelity vs noise amplitude: linear through the origin
    sigma_points = []
    for sigma in (0.02, 0.05, 0.1, 0.15, 0.2):
        stats = run_mc(NoiseConfig(n=100, sigma_c=sigma, sigma_f=0.0, trials=1000, seed=42),
                       definition="abs_one_minus_overlap")
        sigma_points.append((sigma, stats.mean_infidelity))
    linear = fit_linear(sigma_points)
    intercept = linear.params[1]
    ref_value = dict(sigma_points)[0.1]

    elapsed = time.perf_counter() - start
    ok = (-0.65 <= exponent <= -0.35 and linear.r2 >= 0.99
          and abs(intercept) <= 0.1 * ref_value and elapsed <= 600)
    _report(9, ok, f"size exponent {exponent:+.3f}, sigma fit r2={linear.r2:.5f}, "
                   f"intercept {intercept:+.2e} vs 10% bound {0.1 * ref_value:.2e}",
            elapsed)
    assert -0.65 <= exponent <= -0.35
    assert linear.r2 >= 0.99
    assert abs(intercept) <= 0.1 * ref_value
    assert elapsed <= 600


def test_criterion_10_empirical_speed_limit():
    """The speed limit holds empirically on the real-coupling control class.

    The search runs with ``controls="real"``: real j1a, jan and j1n of
    either sign, bounded by sqrt(n-2) j0, sqrt(n-2) j0 and j0, with free real
    diagonals d1, da and dn (real XY couplings plus free single-qubit
    fields; loop flux 0 or pi).  This is the repository's reading of the
    paper's subclass; the complex class cannot be meant, since complex
    coupling phases beat the reference (see the counterexample test below).
    The bisection must land within 2% of pi/(j0 sqrt(2n)) and runs at 0.97
    of the reference must stay below fidelity 1 - 1e-4.  Each returned
    pulse, of the fixed-time runs and of every bisection probe, is checked
    to lie in the class and within its bounds.
    """
    start = time.perf_counter()
    gaps = {}
    pulses = []
    for n in (3, 4):
        ref = minimum_transfer_time(n, 1.0)
        res = min_time_bisection(n, 1.0, 1.0 - 1e-6, 2e-3, n_segments=8,
                                 restarts=8, seed=7, max_iters=250, controls="real")
        gaps[n] = (res.t_star - ref) / ref
        pulses += [(n, s.best_pulse) for s in res.samples]

    over_runs = {}
    for n in (3, 4):
        t = 0.97 * minimum_transfer_time(n, 1.0)
        res = optimize_pulse(n, 1.0, t, 8, restarts=32, seed=11, max_iters=200,
                             controls="real")
        over_runs[n] = res.best_fidelity
        pulses.append((n, res.best_pulse))

    elapsed = time.perf_counter() - start
    within_2pct = all(abs(g) <= 0.02 for g in gaps.values())
    never_reaches = all(f < 1.0 - 1e-4 for f in over_runs.values())
    ok = within_2pct and never_reaches and elapsed <= 300
    _report(10, ok, f"bisection gaps {{n: {gaps}}}, best fidelity at 0.97T "
                    f"{{n: {over_runs}}}", elapsed)
    for n, pulse in pulses:
        for name in ("j1a", "jan", "j1n"):
            assert np.all(getattr(pulse, name).imag == 0.0), (
                f"n={n}: {name} left the real-coupling class")
        assert max(pulse.bound_report().values()) <= 1.0 + 1e-12, (
            f"n={n}: pulse violates its amplitude bounds {pulse.bound_report()}")
    assert within_2pct, (
        f"bisection over real-coupling controls landed at relative gaps {gaps} from "
        f"pi/(j0 sqrt(2n)): the search found a real-coupling protocol faster "
        f"than the reference, or failed to reach it")
    assert never_reaches, (
        f"real-coupling runs at 0.97 T reached fidelities {over_runs}, above 1 - 1e-4: "
        f"a real-coupling protocol beats the reference")
    assert elapsed <= 300


def test_criterion_10_counterexample_documentation():
    """Complex coupling phases beat the reference time; pinned as a test.

    The complex search (the default ``controls="complex"``) reaches unit
    fidelity to 1e-9 at 0.95 of the reference time with an 8-segment pulse
    inside every amplitude bound; at 0.90 it stays measurably short of 1.

    The closed form behind it is the chiral triangle (Roushan et al., Nat.
    Phys. 13, 146 (2017)): at n = 3 the constant Hamiltonian with
    |j1a| = |jan| = |j1n| = j0, zero diagonals and loop flux
    arg(j1a jan conj(j1n)) = -pi/2 has spectrum (-sqrt 3, 0, sqrt 3) j0 and
    moves the excitation from level 1 to level 3 exactly at
    T = 2 pi / (3 sqrt(3) j0) = 0.9428 of the reference.  The real
    triangle with the same magnitudes never exceeds amplitude 2/3.
    """
    n = 3
    ref = minimum_transfer_time(n, 1.0)
    res = optimize_pulse(n, 1.0, 0.95 * ref, 8, restarts=8, seed=13, max_iters=400)
    assert res.best_fidelity >= 1.0 - 1e-9
    assert max(res.best_pulse.bound_report().values()) <= 1.0 + 1e-12

    res_low = optimize_pulse(n, 1.0, 0.90 * ref, 8, restarts=8, seed=13, max_iters=400)
    assert res_low.best_fidelity < 1.0 - 1e-4

    t_chiral = 2.0 * np.pi / (3.0 * np.sqrt(3.0))
    assert t_chiral / ref == pytest.approx(0.9428, abs=1e-4)
    chiral = PulseParams(n=n, j0=1.0, total_time=t_chiral, j1a=[1.0], jan=[1.0],
                         j1n=[1j], d1=[0.0], da=[0.0], dn=[0.0])
    flux = np.angle(chiral.j1a[0] * chiral.jan[0] * np.conj(chiral.j1n[0]))
    assert flux == pytest.approx(-np.pi / 2, abs=1e-15)
    assert max(chiral.bound_report().values()) <= 1.0 + 1e-12
    u = evolve_schedule(pulse_to_schedule(chiral))
    assert abs(abs(u[2, 0]) - 1.0) <= 1e-12
    assert transfer_fidelity(u, EFFECTIVE3) >= 1.0 - 1e-12

    # control: the same magnitudes with real couplings (loop flux 0 for the
    # first sign pattern, pi for the other three), over three reference times
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)):
        h = np.array([[0.0, signs[0], signs[2]],
                      [signs[0], 0.0, signs[1]],
                      [signs[2], signs[1], 0.0]])
        for t in np.linspace(0.0, 3.0 * ref, 301):
            assert abs(evolve_constant(h, t)[2, 0]) <= 2.0 / 3.0 + 1e-12
