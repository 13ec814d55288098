import dataclasses

import numpy as np
import pytest

from fcqst import (
    CASE_TABLE,
    Effective3,
    QBMultipliers,
    build_F,
    case_hamiltonian,
    case_minimum_time,
    case_stationary_solution,
    case_table_rows,
    case_unitary,
    evolve_constant,
    lemma_grid_scan,
    qb_residuals,
    stationary_multipliers,
)
from fcqst.effective3 import boundary_form_check
from fcqst.exceptions import BoundViolationError, GridMismatchError, InvalidSizeError, UnsupportedCaseError
from oracles import effective3_literal, multiplier_literal, qb_residuals_loop


def _verification_h(n, j0=1.0, corner=None):
    a = np.sqrt(n - 2) * j0
    return Effective3(j1a=a, jan=a, j1n=j0 if corner is None else corner)


def solve_stationary_system(n, j0, corner, lam1n_is_zero):
    """Linear-solve oracle for the constant-frame stationarity equations.

    With lam1 = 0 and lam1a = laman =: la imposed, the two off-diagonal
    stationarity equations (paired with opposite coupling-difference signs)
    and the normalization Tr[F H] = 1 form a linear system for
    (lam2, la, lam1n).  For case 7 the complementarity forces lam1n = 0 and
    the system drops to two unknowns.
    """
    a2 = (n - 2) * j0 * j0
    if lam1n_is_zero:
        # 3 lam2 - corner*la = 0 ; 4 a^2 la = 1
        mat = np.array([[3.0, -corner], [0.0, 4.0 * a2]])
        lam2, la = np.linalg.solve(mat, [0.0, 1.0])
        return lam2, la, 0.0
    mat = np.array([
        [3.0, corner, -corner],       # 3 lam2 + b la - b lam1n = 0
        [3.0, -corner, corner],       # 3 lam2 - b la + b lam1n = 0
        [0.0, 4.0 * a2, 2.0 * corner * corner],  # normalization
    ])
    lam2, la, lam1n = np.linalg.solve(mat, [0.0, 0.0, 1.0])
    return lam2, la, lam1n


@pytest.mark.parametrize("n", [3, 4, 8, 20])
@pytest.mark.parametrize("j0", [1.0, 2.5])
def test_case8_multipliers_match_linear_solve_oracle(n, j0):
    lam2, la, lam1n = solve_stationary_system(n, j0, j0, lam1n_is_zero=False)
    m = stationary_multipliers(8, n, j0)
    assert abs(m.lam2 - lam2) < 1e-15
    assert abs(m.lam1a - la) < 1e-15
    assert abs(m.lam1n - lam1n) < 1e-15
    assert m.lam1a == m.laman
    assert abs(m.lam1a - 1.0 / (2 * (2 * n - 3) * j0 * j0)) < 1e-18


@pytest.mark.parametrize("jbar", [0.0, 0.3, 0.75])
def test_case7_multipliers_match_linear_solve_oracle(jbar):
    n, j0 = 6, 1.0
    lam2, la, lam1n = solve_stationary_system(n, j0, jbar, lam1n_is_zero=True)
    m = stationary_multipliers(7, n, j0, j1n_bar=jbar)
    assert abs(m.lam2 - lam2) < 1e-15
    assert abs(m.lam1a - la) < 1e-15
    assert m.lam1n == lam1n == 0.0
    assert abs(m.s1n - np.sqrt(j0 ** 2 - jbar ** 2)) < 1e-15


def test_case7_at_saturation_equals_case8():
    assert stationary_multipliers(7, 8, 1.0, j1n_bar=1.0) == stationary_multipliers(8, 8, 1.0)


def test_stationary_multipliers_scaling():
    base = stationary_multipliers(8, 8, 1.0)
    doubled = stationary_multipliers(8, 8, 2.0)
    # Tr[F H] = 1 fixes multipliers ~ 1/j0^2
    assert abs(doubled.lam1a - base.lam1a / 4.0) < 1e-15
    assert abs(doubled.lam1n - base.lam1n / 4.0) < 1e-15


def test_stationary_multipliers_guards():
    with pytest.raises(UnsupportedCaseError):
        stationary_multipliers(6, 8, 1.0)
    with pytest.raises(UnsupportedCaseError):
        stationary_multipliers(7, 8, 1.0)  # j1n_bar missing
    with pytest.raises(BoundViolationError):
        stationary_multipliers(7, 8, 1.0, j1n_bar=1.2)
    with pytest.raises(InvalidSizeError):
        stationary_multipliers(8, 2, 1.0)


def test_build_F_structure():
    h = _verification_h(5)
    assert np.abs(build_F(QBMultipliers(), h)).max() == 0.0
    f = build_F(QBMultipliers(lam1=1.0), Effective3(j1a=0, jan=0, j1n=0))
    assert np.array_equal(f, np.diag([1.0, 0.0, -1.0]).astype(complex))
    # trace vanishes identically
    gen = np.random.default_rng(0)
    for _ in range(20):
        vals = gen.normal(size=5)
        m = QBMultipliers(lam1=vals[0], lam2=vals[1], lam1a=vals[2],
                          laman=vals[3], lam1n=vals[4])
        assert abs(np.trace(build_F(m, h))) < 1e-14


def test_negative_slack_rejected():
    with pytest.raises(BoundViolationError):
        QBMultipliers(s1a=-0.1)


@pytest.mark.parametrize("case_id", [6, 7, 8])
def test_stationary_solutions_have_tiny_residuals(case_id):
    n, j0 = 8, 1.0
    kwargs = {"j1n_bar": 0.6} if case_id == 7 else {}
    h, m = case_stationary_solution(case_id, n, j0, **kwargs)
    t = case_minimum_time(case_id, n, j0, j1n_bar=0.6 if case_id == 7 else None)
    grid = 200
    segments = [(t / grid, h)] * grid
    report = qb_residuals(segments, [m] * grid, n, j0)
    assert report.max_residual <= 1e-10


def test_case_stationary_solution_unsupported():
    for case_id in (1, 2, 3, 4, 5):
        with pytest.raises(UnsupportedCaseError):
            case_stationary_solution(case_id, 8, 1.0)


def test_qb_residuals_constant_commutator():
    # constant F with constant H: residual is exactly ||[F, H]||
    h = _verification_h(4)
    m = QBMultipliers(lam1=0.2, lam2=-0.1, lam1a=0.3, laman=0.05, lam1n=0.15)
    f = build_F(m, h)
    comm = f @ h.matrix() - h.matrix() @ f
    expected = np.abs(comm).max()
    assert expected > 0.01
    report = qb_residuals([(0.1, h)] * 7, [m] * 7, 4, 1.0)
    assert abs(report.qb_equation - expected) < 1e-15


def test_qb_residuals_zero_multipliers():
    h = _verification_h(4)
    report = qb_residuals([(0.5, h)], [QBMultipliers()], 4, 1.0)
    assert report.normalization == 1.0  # Tr[F H] = 0


def test_qb_residuals_grid_mismatch():
    h = _verification_h(4)
    with pytest.raises(GridMismatchError):
        qb_residuals([(0.5, h)] * 3, [QBMultipliers()] * 2, 4, 1.0)


def test_qb_residuals_rejects_empty_and_bad_grids():
    h, m = case_stationary_solution(8, 4, 1.0)
    with pytest.raises(GridMismatchError, match="segment"):
        qb_residuals([], [], 4, 1.0)
    for dt in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(GridMismatchError, match="durations"):
            qb_residuals([(0.1, h), (dt, h)], [m, m], 4, 1.0)


def test_qb_residuals_propagate_nan():
    h, m = case_stationary_solution(8, 4, 1.0)
    bad_slack = dataclasses.replace(m, s1a=np.nan)
    report = qb_residuals([(0.1, h)] * 3, [m, bad_slack, m], 4, 1.0)
    assert np.isnan(report.constraint) and np.isnan(report.complementarity)
    assert report.qb_equation <= 1e-15
    assert np.isnan(report.max_residual)


BAD_J0 = (np.nan, np.inf, -1.0, 0.0)


@pytest.mark.parametrize("j0", BAD_J0)
def test_catalog_rejects_invalid_j0(j0):
    h, m = case_stationary_solution(8, 5, 1.0)
    with pytest.raises(InvalidSizeError, match="j0"):
        qb_residuals([(0.1, h)] * 3, [m] * 3, 5, j0)
    for case_id, kwargs in ((6, {}), (7, {"j1n_bar": 0.0}), (8, {})):
        with pytest.raises(InvalidSizeError, match="j0"):
            case_hamiltonian(case_id, 5, j0, **kwargs)
        with pytest.raises(InvalidSizeError, match="j0"):
            case_unitary(case_id, 5, j0, 0.5, **kwargs)
        with pytest.raises(InvalidSizeError, match="j0"):
            case_stationary_solution(case_id, 5, j0, **kwargs)


def test_catalog_rejects_two_qubits():
    h, m = case_stationary_solution(8, 5, 1.0)
    with pytest.raises(InvalidSizeError, match="n >= 3"):
        qb_residuals([(0.1, h)] * 3, [m] * 3, 2, 1.0)
    for case_id, kwargs in ((6, {}), (7, {"j1n_bar": 0.5}), (8, {})):
        with pytest.raises(InvalidSizeError, match="n >= 3"):
            case_hamiltonian(case_id, 2, 1.0, **kwargs)
        with pytest.raises(InvalidSizeError, match="n >= 3"):
            case_unitary(case_id, 2, 1.0, 0.5, **kwargs)


def test_matrices_equal_the_literals():
    gen = np.random.default_rng(11)
    for _ in range(50):
        j1a, jan, j1n = gen.normal(size=3) + 1j * gen.normal(size=3)
        d1, da, dn = gen.normal(size=3)
        h = Effective3(j1a=j1a, jan=jan, j1n=j1n, d1=d1, da=da, dn=dn)
        assert np.array_equal(h.matrix(), effective3_literal(j1a, jan, j1n, d1, da, dn))
        m = QBMultipliers(*gen.normal(size=5), *np.abs(gen.normal(size=3)))
        assert np.array_equal(build_F(m, h), multiplier_literal(m, j1a, jan, j1n))


def _random_trajectory(gen, k, n, uniform):
    a = np.sqrt(n - 2)
    dts = np.full(k, 0.7 / k) if uniform else gen.uniform(0.01, 0.2, size=k)
    segments, mults = [], []
    for dt in dts:
        j = gen.normal(scale=[a, a, 1.0], size=3) + 1j * gen.normal(scale=[a, a, 1.0], size=3)
        segments.append((dt, Effective3(j1a=j[0], jan=j[1], j1n=j[2],
                                        d1=gen.normal(), da=gen.normal(), dn=gen.normal())))
        mults.append(QBMultipliers(*gen.normal(size=5), *np.abs(gen.normal(size=3))))
    return segments, mults


def _assert_matches_loop(segments, mults, n, j0):
    report = qb_residuals(segments, mults, n, j0)
    got = (report.qb_equation, report.normalization, report.constraint,
           report.complementarity)
    for r, r_loop in zip(got, qb_residuals_loop(segments, mults, n, j0)):
        assert abs(r - r_loop) <= 1e-14 * max(1.0, abs(r_loop))


@pytest.mark.parametrize("k", [1, 2, 7, 1000])
@pytest.mark.parametrize("uniform", [True, False])
def test_qb_residuals_match_loop_oracle_on_random_trajectories(k, uniform):
    gen = np.random.default_rng(k + 7 * uniform)
    n = 6
    segments, mults = _random_trajectory(gen, k, n, uniform)
    _assert_matches_loop(segments, mults, n, 1.3)


@pytest.mark.parametrize("n", [4, 16])
def test_qb_residuals_match_loop_oracle_on_case8_grids(n):
    h, m = case_stationary_solution(8, n, 1.0)
    grid = 1000
    dt = case_minimum_time(8, n, 1.0) / grid
    _assert_matches_loop([(dt, h)] * grid, [m] * grid, n, 1.0)
    # the five 1 % perturbations of acceptance criterion 5
    for name in ("lam1", "lam2", "lam1a", "laman", "lam1n"):
        value = getattr(m, name)
        bumped = dataclasses.replace(m, **{name: value * 1.01 if value else 0.01 * m.lam1a})
        _assert_matches_loop([(dt, h)] * grid, [bumped] * grid, n, 1.0)


def test_case_minimum_time_catalog():
    assert abs(case_minimum_time(8, 8, 1.0) - np.pi / 4) < 1e-15
    assert abs(case_minimum_time(7, 8, 1.0, j1n_bar=1.0) - np.pi / 4) < 1e-14
    assert abs(case_minimum_time(6, 5, 2.0) - np.pi / 4) < 1e-15
    for case_id in (1, 2, 3, 4, 5):
        assert case_minimum_time(case_id, 8, 1.0) is None
    with pytest.raises(BoundViolationError):
        case_minimum_time(7, 8, 1.0, j1n_bar=1.2)
    with pytest.raises(UnsupportedCaseError):
        case_minimum_time(9, 8, 1.0)


def test_case7_time_decreasing_in_coupling():
    times = [case_minimum_time(7, 8, 1.0, j1n_bar=j) for j in np.linspace(0, 1, 11)]
    assert all(a > b for a, b in zip(times, times[1:]))
    assert abs(times[-1] - case_minimum_time(8, 8, 1.0)) < 1e-14


def test_case8_always_beats_case6():
    for n in range(3, 40):
        assert case_minimum_time(8, n, 1.0) < case_minimum_time(6, n, 1.0)


def test_case_unitary_case6():
    j0 = 1.0
    t = np.pi / (2 * j0)
    u = case_unitary(6, 5, j0, t, phi_1n=0.0)
    assert abs(abs(u[0, 2]) - 1.0) < 1e-15
    assert np.abs(case_unitary(6, 5, j0, 0.0) - np.eye(3)).max() == 0.0
    # closed form equals the eigendecomposition propagator, arbitrary phase
    h = case_hamiltonian(6, 5, j0, phi_1n=0.7)
    for t in np.linspace(0, 2.5, 9):
        diff = case_unitary(6, 5, j0, t, phi_1n=0.7) - evolve_constant(h.sector_matrix(), t)
        assert np.abs(diff).max() < 1e-13


@pytest.mark.parametrize("jbar,c1a", [(1.0, None), (0.6, None), (0.8, 1.9)])
def test_case_unitary_case7_matches_eigendecomposition(jbar, c1a):
    n, j0 = 8, 1.0
    h = case_hamiltonian(7, n, j0, j1n_bar=jbar, c1a=c1a)
    for t in np.linspace(0, 2.0, 13):
        diff = case_unitary(7, n, j0, t, j1n_bar=jbar, c1a=c1a) \
            - evolve_constant(h.sector_matrix(), t)
        assert np.abs(diff).max() < 1e-12


def test_case_unitary_case7_saturated_matches_optimal_matrix_frame():
    # at c1a = 4 j0, jbar = j0 the case Hamiltonian is the optimal 3-level
    # matrix plus 3 j0 * identity, so propagators agree up to that phase
    n, j0 = 8, 1.0
    a = np.sqrt(n - 2)
    optimal = Effective3(j1a=a, jan=a, j1n=1.0, d1=0.0, da=-3.0, dn=0.0)
    omega = np.sqrt(8 * (n - 2) * j0 ** 2 + 16.0)
    t_min = 2 * np.pi / omega
    assert abs(t_min - case_minimum_time(8, n, j0)) < 1e-14
    for t in np.linspace(0, 2 * t_min, 40):
        u7 = case_unitary(7, n, j0, t, j1n_bar=1.0)
        u_opt = evolve_constant(optimal.sector_matrix(), t)
        assert np.abs(u7 * np.exp(3j * j0 * t) - u_opt).max() < 1e-10
    u7 = case_unitary(7, n, j0, t_min, j1n_bar=1.0)
    assert abs(abs(u7[2, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_case_unitary_case8_sign_branches(sign):
    n, j0 = 6, 1.0
    h = case_hamiltonian(8, n, j0, sign=sign)
    t_min = case_minimum_time(8, n, j0)
    for t in np.linspace(0, 2 * t_min, 17):
        u = case_unitary(8, n, j0, t, sign=sign)
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12
        assert np.abs(u - evolve_constant(h.sector_matrix(), t)).max() < 1e-12
    assert abs(abs(case_unitary(8, n, j0, t_min, sign=sign)[2, 0]) - 1.0) < 1e-12


def test_case_unitary_unsupported():
    for case_id in (1, 2, 3, 4, 5, 9):
        with pytest.raises(UnsupportedCaseError):
            case_unitary(case_id, 8, 1.0, 0.1)


@pytest.mark.parametrize("case_id,kwargs", [(6, {"phi_1n": 0.0}),
                                            (7, {"j1n_bar": 1.0}),
                                            (8, {"sign": 1})])
def test_boundary_form_only_at_minimum_time(case_id, kwargs):
    n, j0 = 8, 1.0
    t_min = case_minimum_time(case_id, n, j0,
                              j1n_bar=kwargs.get("j1n_bar"))
    u = case_unitary(case_id, n, j0, t_min, **kwargs)
    assert boundary_form_check(u).valid
    for t in np.linspace(0, t_min, 1001)[1:-1]:
        assert not boundary_form_check(case_unitary(case_id, n, j0, t, **kwargs)).valid


def test_case_table_partition_and_rows():
    labels = {"1A", "AN", "1N"}
    for spec in CASE_TABLE:
        assert spec.zero_multipliers | spec.zero_slacks == labels
        assert not spec.zero_multipliers & spec.zero_slacks
    rows = case_table_rows(8, 1.0)
    assert [r["t_min"] for r in rows[:5]] == ["none"] * 5
    assert abs(float(rows[7]["t_min"]) - np.pi / 4) < 1e-12
    assert rows[6]["t_min"] == rows[7]["t_min"]  # case 7 defaults to saturation
    assert abs(float(rows[5]["t_min"]) - np.pi / 2) < 1e-12


def test_lemma_grid_scan_minimizer_at_one():
    report = lemma_grid_scan(np.sqrt(8.0), 0.0, 10)
    assert report.minimizer_x == 1
    report = lemma_grid_scan(1.0, 1.0, 10)
    assert report.minimizer_x == 1


def test_lemma_grid_scan_stable_under_larger_grids():
    for q, r in [(np.sqrt(8.0), 0.0), (1.0, 1.0), (2.0, 5.0)]:
        minimizers = {lemma_grid_scan(q, r, x_max).minimizer_x
                      for x_max in (3, 5, 10, 25, 60)}
        assert minimizers == {1}


def test_lemma_grid_scan_monotone_along_branches():
    report = lemma_grid_scan(np.sqrt(8.0), 0.0, 30)
    minus = [row.g for row in report.rows if row.branch == "minus"]
    assert all(a < b for a, b in zip(minus, minus[1:]))


def test_lemma_grid_scan_guards():
    with pytest.raises(InvalidSizeError):
        lemma_grid_scan(0.0, 1.0, 10)
    with pytest.raises(InvalidSizeError):
        lemma_grid_scan(1.0, 0.0, 2)
