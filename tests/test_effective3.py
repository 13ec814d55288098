import numpy as np
import pytest

from fcqst import (
    Effective3,
    SpinModel,
    boundary_form_check,
    build_h_opt,
    build_h_opt_prime,
    evolve_constant,
    evolve_schedule,
    minimum_transfer_time,
    project_single_excitation,
    reduce_to_effective,
)
from fcqst.effective3 import coupling_bounds, effective_matrices
from fcqst.exceptions import GridMismatchError, InvalidSizeError, SymmetryError, UnitarityError
from oracles import transfer_form_unitary


def _optimal_matrix(n, j0=1.0):
    a = np.sqrt(n - 2) * j0
    return np.array([[0, a, j0], [a, -3 * j0, a], [j0, a, 0]], dtype=complex)


def _schedule(segments):
    """The (durations, mats) schedule of (duration, Effective3) segments."""
    return np.array([dt for dt, _ in segments]), np.array([h.matrix() for _, h in segments])


def _symmetric_model(n, seed):
    """Random permutation-symmetric model (complex star couplings, real
    couplings among intermediates as the symmetry requires)."""
    gen = np.random.default_rng(seed)
    j1m = complex(*gen.normal(size=2))
    jmn = complex(*gen.normal(size=2))
    jmm = complex(gen.normal(), 0.0)
    j1n = complex(*gen.normal(size=2))
    b1, bm, bn = gen.normal(size=3)
    couplings = {(1, n): j1n}
    for k in range(2, n):
        couplings[(1, k)] = j1m
        couplings[(k, n)] = jmn
        for l in range(k + 1, n):
            couplings[(k, l)] = jmm
    fields = [bm] * n
    fields[0], fields[-1] = b1, bn
    return SpinModel(n=n, couplings=couplings, fields=tuple(fields))


@pytest.mark.parametrize("n", [3, 4, 8, 17])
@pytest.mark.parametrize("builder", [build_h_opt, build_h_opt_prime])
def test_reduction_reproduces_optimal_matrix(builder, n):
    eff = reduce_to_effective(builder(n, 1.0))
    assert np.abs(eff.matrix() - _optimal_matrix(n)).max() < 1e-12
    assert eff.frame_shift == 0.0
    assert eff.dn == 0.0


def test_reduction_records_frame_shift():
    # a uniform extra field shifts all sector energies; dn is re-zeroed and
    # the shift recorded
    n = 5
    base = build_h_opt(n, 1.0)
    fields = tuple(f + 0.7 for f in base.fields)
    shifted = SpinModel(n=n, couplings=base.couplings, fields=fields)
    eff = reduce_to_effective(shifted)
    assert np.abs(eff.matrix() - _optimal_matrix(n)).max() < 1e-12
    sector = project_single_excitation(shifted)
    assert abs(eff.frame_shift - sector.entries[-1, -1].real) < 1e-12
    assert abs(eff.frame_shift - 0.7 * (n - 2)) < 1e-12


def test_reduction_rejects_asymmetric_model():
    m = SpinModel(n=4, couplings={(1, 2): 1.0, (1, 3): 1.1,
                                  (2, 4): 1.0, (3, 4): 1.0})
    with pytest.raises(SymmetryError) as err:
        reduce_to_effective(m)
    assert "(1, 2)" in str(err.value) and "(1, 3)" in str(err.value)
    with pytest.raises(InvalidSizeError):
        reduce_to_effective(SpinModel(n=2, couplings={(1, 2): 1.0}))


def test_reduction_rejects_complex_intermediate_couplings():
    m = SpinModel(n=4, couplings={(1, 2): 1.0, (1, 3): 1.0, (2, 4): 1.0,
                                  (3, 4): 1.0, (2, 3): 0.5 + 0.5j})
    with pytest.raises(SymmetryError):
        reduce_to_effective(m)


def test_reduction_scales_collective_couplings():
    eff = reduce_to_effective(_symmetric_model(6, 3))
    m = _symmetric_model(6, 3)
    assert abs(eff.j1a - 2.0 * m.couplings[0, 1]) < 1e-12  # sqrt(6-2) = 2
    assert abs(eff.jan - 2.0 * m.couplings[1, 5]) < 1e-12
    assert abs(eff.j1n - m.couplings[0, 5]) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 8])
def test_reduction_commutes_with_evolution(n):
    # the symmetric 3-dim subspace is invariant: reduced evolution equals
    # the projected sector evolution, including the frame-shift phase
    model = _symmetric_model(n, n)
    eff = reduce_to_effective(model)
    t = 0.83
    u3 = evolve_constant(eff.sector_matrix(), t) * np.exp(-1j * eff.frame_shift * t)
    u_full = evolve_constant(project_single_excitation(model), t)
    w = np.zeros(n)
    w[1:-1] = 1 / np.sqrt(n - 2)
    basis = np.zeros((n, 3))
    basis[0, 0] = 1.0
    basis[:, 1] = w
    basis[-1, 2] = 1.0
    projected = basis.T @ u_full @ basis
    assert np.abs(projected - u3).max() < 1e-10


@pytest.mark.parametrize("transform", [evolve_schedule])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_schedule_transforms_reject_bad_durations(transform, bad):
    # a NaN duration used to give NaN phases, and a negative one a negative
    # segment
    h = Effective3(j1a=1, jan=1, j1n=0.5, d1=1)
    with pytest.raises(GridMismatchError, match="finite and positive"):
        transform(_schedule([(0.3, h), (bad, h)]))
    with pytest.raises(GridMismatchError, match="at least one segment"):
        transform((np.empty(0), np.empty((0, 3, 3))))


def test_coupling_bounds():
    assert coupling_bounds(6, 2.0) == (4.0, 4.0, 2.0)
    assert coupling_bounds(3, 1.5) == (1.5, 1.5, 1.5)
    with pytest.raises(InvalidSizeError, match="n >= 3"):
        coupling_bounds(2, 1.0)
    for j0 in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(InvalidSizeError, match="j0"):
            coupling_bounds(5, j0)


def test_effective_matrices_broadcast():
    gen = np.random.default_rng(5)
    j1a, jan = gen.normal(size=(2, 4, 7)) + 1j * gen.normal(size=(2, 4, 7))
    d1 = gen.normal(size=7)
    mats = effective_matrices(j1a, jan, 0.5j, d1, 0.0, -1.0)
    assert mats.shape == (4, 7, 3, 3)
    assert np.array_equal(mats, mats.conj().swapaxes(-1, -2))
    for i in range(4):
        for k in range(7):
            h = Effective3(j1a=j1a[i, k], jan=jan[i, k], j1n=0.5j, d1=d1[k], da=0.0, dn=-1.0)
            assert np.array_equal(mats[i, k], h.matrix())
    assert effective_matrices(1.0, 2.0, 3.0, 0.0, 0.0, 0.0).shape == (3, 3)


def test_boundary_form_check_identity_invalid():
    d = boundary_form_check(np.eye(3))
    assert not d.valid


def test_boundary_form_round_trip():
    u = transfer_form_unitary(0.3, 0.1, -0.2, 0.5)
    d = boundary_form_check(u)
    assert d.valid
    assert abs(d.theta - 0.3) < 1e-12
    assert abs(d.alpha - 0.1) < 1e-12
    assert abs(d.beta + 0.2) < 1e-12
    assert abs(d.phi - 0.5) < 1e-12


def test_boundary_form_optimal_propagator():
    n = 8
    h = reduce_to_effective(build_h_opt(n, 1.0)).sector_matrix()
    u = evolve_constant(h, minimum_transfer_time(n, 1.0))
    d = boundary_form_check(u)
    assert d.valid
    # the optimal protocol realizes the full-transfer representative
    assert abs(d.theta - np.pi / 2) < 1e-9


def test_boundary_form_depends_only_on_moduli():
    u = transfer_form_unitary(0.8, 0.7, 0.1, -0.4)
    for phases in ([0.3, -1.2, 2.0], [1.0, 1.0, 1.0]):
        left = np.diag(np.exp(1j * np.array(phases)))
        right = np.diag(np.exp(1j * np.array(phases[::-1])))
        assert boundary_form_check(left @ u @ right).valid
    v = evolve_constant(np.diag([1.0, 2.0, -1.0]).astype(complex), 0.9)
    assert not boundary_form_check(v).valid  # diagonal unitary keeps u11 = 1


def test_boundary_form_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        boundary_form_check(np.ones((3, 3)))
    with pytest.raises(UnitarityError):
        boundary_form_check(np.eye(4))
    # a NaN deviation used to pass the unitarity check, some with valid=True
    for bad in (np.nan, np.inf):
        sparse = np.zeros((3, 3), dtype=complex)
        sparse[0, 1], sparse[2, 0] = bad, 1.0
        cyclic = np.roll(np.eye(3, dtype=complex), 1, axis=1)
        cyclic[0, 1] = bad
        diagonal = np.eye(3, dtype=complex)
        diagonal[1, 1] = bad
        for u in (sparse, cyclic, diagonal):
            with pytest.raises(UnitarityError, match="not unitary"):
                boundary_form_check(u)


def test_effective3_rejects_non_finite_fields():
    base = dict(j1a=1.0, jan=0.5j, j1n=0.25, d1=0.1, da=-3.0, dn=0.0, frame_shift=2.0)
    for name in base:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidSizeError, match=name):
                Effective3(**{**base, name: bad})
        if name in ("j1a", "jan", "j1n"):
            with pytest.raises(InvalidSizeError, match=name):
                Effective3(**{**base, name: complex(1.0, np.nan)})
