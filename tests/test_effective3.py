import numpy as np
import pytest

from fcqst import (
    Effective3,
    SpinModel,
    boundary_form_check,
    build_h_opt,
    build_h_opt_prime,
    check_effective_bounds,
    evolve_constant,
    evolve_schedule,
    minimum_transfer_time,
    project_single_excitation,
    reduce_to_effective,
    to_interaction_picture,
)
from fcqst.effective3 import (accumulated_diagonal_phase, coupling_bounds, effective_matrices,
                              transfer_form_unitary)
from fcqst.exceptions import InvalidSizeError, SymmetryError, UnitarityError
from fcqst.propagator import ControlSchedule


def _optimal_matrix(n, j0=1.0):
    a = np.sqrt(n - 2) * j0
    return np.array([[0, a, j0], [a, -3 * j0, a], [j0, a, 0]], dtype=complex)


def _schedule(segments):
    return ControlSchedule(segments=tuple((dt, h.sector_matrix()) for dt, h in segments))


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


def test_interaction_picture_trivial_cases():
    h = Effective3(j1a=1.0 + 0.5j, jan=0.3, j1n=0.9j)
    out = to_interaction_picture([(0.7, h)])
    assert len(out) == 1
    assert out[0][0] == 0.7
    assert np.abs(out[0][1].matrix() - h.matrix()).max() == 0.0

    shifted = Effective3(j1a=1.0, jan=1.0, j1n=0.5, d1=2.2, da=2.2, dn=2.2)
    out = to_interaction_picture([(0.9, shifted)])
    assert abs(out[0][1].j1a - shifted.j1a) < 1e-15
    assert abs(out[0][1].jan - shifted.jan) < 1e-15
    assert abs(out[0][1].j1n - shifted.j1n) < 1e-15
    assert out[0][1].d1 == out[0][1].da == out[0][1].dn == 0.0


def test_interaction_picture_preserves_magnitudes():
    h = Effective3(j1a=2.0 + 1.0j, jan=-0.5j, j1n=0.25, d1=1.0, da=-3.0, dn=0.5)
    for _, seg in to_interaction_picture([(1.3, h)], slices_per_segment=16):
        assert abs(abs(seg.j1a) - abs(h.j1a)) < 1e-14
        assert abs(abs(seg.jan) - abs(h.jan)) < 1e-14
        assert abs(abs(seg.j1n) - abs(h.j1n)) < 1e-14


def test_interaction_picture_matches_exact_frame():
    # U_original = exp(-i Theta(T)) @ U_interaction up to the slicing error
    n = 8
    h = reduce_to_effective(build_h_opt(n, 1.0))
    t = minimum_transfer_time(n, 1.0)
    segments = [(t, h)]
    u0 = evolve_constant(h.sector_matrix(), t)
    # slicing error is O((t/K)^2); K = 2^14 lands around 1e-9 here
    ip = to_interaction_picture(segments, slices_per_segment=1 << 14)
    u_ip = evolve_schedule(_schedule(ip))
    frame = np.diag(np.exp(-1j * accumulated_diagonal_phase(segments)))
    assert np.abs(u0 - frame @ u_ip).max() < 5e-9
    # the coupling phases rotate at the diagonal gap (3 j0 here)
    first = ip[0][1]
    mid_phase = np.exp(1j * 3.0 * (ip[0][0] / 2))
    assert abs(first.j1a - h.j1a * mid_phase) < 1e-12


def test_interaction_picture_fidelity_invariance():
    # |<phi_3|U|phi_1>| agrees between a schedule and its transform
    n = 8
    h = reduce_to_effective(build_h_opt(n, 1.0))
    t = minimum_transfer_time(n, 1.0)
    other = Effective3(j1a=1.0, jan=0.8 - 0.2j, j1n=0.3, d1=0.4, da=-1.0, dn=0.1)
    segments = [(0.6 * t, h), (0.4 * t, other)]
    u0 = evolve_schedule(_schedule(segments))
    ip = to_interaction_picture(segments, slices_per_segment=1 << 16)
    u_ip = evolve_schedule(_schedule(ip))
    assert abs(abs(u0[2, 0]) - abs(u_ip[2, 0])) < 1e-10


def test_interaction_picture_slice_count_guard():
    with pytest.raises(InvalidSizeError):
        to_interaction_picture([(1.0, Effective3(j1a=1, jan=1, j1n=1))],
                               slices_per_segment=0)


def test_check_effective_bounds():
    n = 8
    eff = reduce_to_effective(build_h_opt(n, 1.0))
    report = check_effective_bounds(eff, n, 1.0)
    assert report.ok
    assert abs(report.max_ratio - 1.0) < 1e-15
    assert abs(abs(eff.j1n) - 1.0) == 0.0

    too_big = Effective3(j1a=np.sqrt(n - 2) * 1.01, jan=0.0, j1n=0.0)
    report = check_effective_bounds(too_big, n, 1.0)
    assert [v.label for v in report.violations] == ["j1a"]

    assert check_effective_bounds(Effective3(j1a=0, jan=0, j1n=0), n, 1.0).ok

    # diagonals are unconstrained
    spiky = Effective3(j1a=0, jan=0, j1n=0, d1=1e6, da=-1e6, dn=3.0)
    assert check_effective_bounds(spiky, n, 1.0).ok


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


def test_effective3_json_round_trip():
    eff = Effective3(j1a=1.5 - 0.5j, jan=0.25j, j1n=-1.0, d1=0.1, da=-3.0, dn=0.0)
    doc = eff.to_json_dict()
    assert doc == {"j1a": [1.5, -0.5], "jan": [0.0, 0.25], "j1n": [-1.0, -0.0],
                   "d1": 0.1, "da": -3.0, "dn": 0.0}
    back = Effective3.from_json_dict(doc)
    assert np.abs(back.matrix() - eff.matrix()).max() == 0.0


def test_effective3_rejects_non_finite_fields():
    base = dict(j1a=1.0, jan=0.5j, j1n=0.25, d1=0.1, da=-3.0, dn=0.0, frame_shift=2.0)
    for name in base:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidSizeError, match=name):
                Effective3(**{**base, name: bad})
        if name in ("j1a", "jan", "j1n"):
            with pytest.raises(InvalidSizeError, match=name):
                Effective3(**{**base, name: complex(1.0, np.nan)})
    # a NaN coupling used to pass check_effective_bounds with .ok true
    with pytest.raises(InvalidSizeError, match="j1a"):
        check_effective_bounds(Effective3(j1a=np.nan, jan=0, j1n=0), 5, 1.0)
    doc = Effective3(**base).to_json_dict()
    with pytest.raises(InvalidSizeError, match="da"):
        Effective3.from_json_dict({**doc, "da": float("nan")})
    with pytest.raises(InvalidSizeError, match="j1n"):
        Effective3.from_json_dict({**doc, "j1n": [0.0, float("inf")]})
