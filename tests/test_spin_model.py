import numpy as np
import pytest

from fcqst import (
    SectorMatrix,
    SpinModel,
    build_h_opt,
    build_h_opt_prime,
    check_coupling_bounds,
    project_full_space,
    project_single_excitation,
)
from fcqst.exceptions import HermiticityError, InvalidSizeError, SizeLimitError
from fcqst.spin_model import FULL_SPACE, SINGLE_EXCITATION

from oracles import (
    excitation_number,
    full_hamiltonian,
    single_excitation_basis,
    single_excitation_loop,
)


def test_build_h_opt_n4():
    m = build_h_opt(4, 1.0)
    assert m.fields == (-2.0, 0.0, 0.0, -2.0)
    assert len(m.couplings) == 6
    assert all(v == 1.0 for v in m.couplings.values())


def test_build_h_opt_n3_j2():
    m = build_h_opt(3, 2.0)
    assert m.fields == (-3.0, 0.0, -3.0)
    assert sorted(m.couplings) == [(1, 2), (1, 3), (2, 3)]
    assert all(v == 2.0 for v in m.couplings.values())


def test_build_h_opt_too_small():
    with pytest.raises(InvalidSizeError):
        build_h_opt(2, 1.0)
    with pytest.raises(InvalidSizeError):
        build_h_opt_prime(2, 1.0)
    with pytest.raises(InvalidSizeError):
        build_h_opt(4, -1.0)


def test_build_h_opt_prime_n4():
    m = build_h_opt_prime(4, 1.0)
    assert (2, 3) not in m.couplings
    for pair in [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)]:
        assert m.couplings[pair] == 1.0
    assert m.fields == (-1.5, 0.0, 0.0, -1.5)


def test_build_h_opt_prime_n5_intermediates_uncoupled():
    m = build_h_opt_prime(5, 1.0)
    for pair in [(2, 3), (2, 4), (3, 4)]:
        assert m.coupling(*pair) == 0.0


def test_builders_coincide_at_n3():
    a, b = build_h_opt(3, 1.0), build_h_opt_prime(3, 1.0)
    assert a.couplings == b.couplings
    assert a.fields == b.fields == (-1.5, 0.0, -1.5)


def test_scale_covariance():
    for c in (0.5, 2.0, 7.25):
        base = build_h_opt(6, 1.0)
        scaled = build_h_opt(6, c)
        assert scaled.fields == tuple(c * f for f in base.fields)
        assert all(scaled.couplings[p] == c * base.couplings[p] for p in base.couplings)


def test_permutation_symmetry_of_builders():
    # swapping two intermediate labels maps the coupling/field data to itself
    def swap(model, a, b):
        perm = {a: b, b: a}

        def p(q):
            return perm.get(q, q)

        couplings = {(p(i), p(j)): v for (i, j), v in model.couplings.items()}
        fields = list(model.fields)
        fields[a - 1], fields[b - 1] = fields[b - 1], fields[a - 1]
        return SpinModel(n=model.n, couplings=couplings, fields=tuple(fields))

    for builder in (build_h_opt, build_h_opt_prime):
        m = builder(6, 1.0)
        for a, b in [(2, 3), (3, 5), (2, 5)]:
            s = swap(m, a, b)
            assert s.couplings == m.couplings
            assert s.fields == m.fields


def test_project_single_excitation_trivial_cases():
    empty = SpinModel(n=3)
    sector = project_single_excitation(empty)
    assert np.abs(sector.entries).max() == 0.0
    assert sector.vacuum_phase_rate == 0.0

    pair = SpinModel(n=2, couplings={(1, 2): 1.0})
    assert np.array_equal(project_single_excitation(pair).entries,
                          np.array([[0, 1], [1, 0]], dtype=complex))


def test_project_single_excitation_against_pauli_oracle():
    # independent expansion: embed the single-excitation block of the
    # kron-built 2^N Hamiltonian and compare entry by entry
    model = SpinModel(
        n=4,
        couplings={(1, 2): 0.3 + 0.1j, (1, 3): 0.3 + 0.1j, (2, 4): -0.2j,
                   (3, 4): -0.2j, (1, 4): 0.9, (2, 3): 0.45},
        zz={(1, 2): 0.2, (3, 4): -0.4},
        fields=(0.5, -0.25, -0.25, 1.5),
    )
    hf = full_hamiltonian(model)
    basis = single_excitation_basis(4)
    block = basis.conj().T @ hf @ basis
    sector = project_single_excitation(model)
    assert np.abs(sector.entries - block).max() < 1e-13
    assert abs(sector.vacuum_phase_rate - hf[0, 0].real) < 1e-13


def test_project_single_excitation_matches_loop_oracle():
    # the vectorized scatter and per-site ZZ sums must reproduce the
    # pair-by-pair loop bit for bit, swapped keys and overlapping ZZ included
    gen = np.random.default_rng(5)
    n = 30
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    order = gen.permutation(len(pairs))

    def key(k):
        return pairs[k] if gen.random() < 0.5 else pairs[k][::-1]

    model = SpinModel(
        n=n,
        couplings={key(k): complex(*gen.normal(size=2)) for k in order[:300]},
        zz={key(k): float(gen.normal()) for k in order[100:]},
        fields=tuple(gen.normal(size=n)),
    )
    sector = project_single_excitation(model)
    entries, vac = single_excitation_loop(model)
    assert np.array_equal(sector.entries, entries)
    assert sector.vacuum_phase_rate == vac


def test_optimal_single_excitation_block_is_displayed_matrix():
    # restricting to the permutation-symmetric 3-dim subspace reproduces the
    # optimal 3-level matrix exactly (no diagonal shift needed here)
    n = 4
    sector = project_single_excitation(build_h_opt(n, 1.0)).entries
    w = np.zeros(n)
    w[1:-1] = 1 / np.sqrt(n - 2)
    basis = np.zeros((n, 3))
    basis[0, 0] = 1.0
    basis[:, 1] = w
    basis[-1, 2] = 1.0
    reduced = basis.T @ sector @ basis
    a = np.sqrt(n - 2)
    expected = np.array([[0, a, 1], [a, -3, a], [1, a, 0]])
    assert np.abs(reduced - expected).max() < 1e-12


def test_project_full_space_small_cases():
    pair = SpinModel(n=2, couplings={(1, 2): 1.0})
    h = project_full_space(pair).entries
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1.0  # |01> <-> |10>
    assert np.array_equal(h, expected)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_full_space_block_structure(n):
    model = build_h_opt(n, 1.0)
    h = project_full_space(model).entries
    # conserves the excitation number: no matrix elements between sectors
    num = excitation_number(n)
    for k in range(n + 1):
        for m in range(n + 1):
            if k != m:
                block = h[np.ix_(num == k, num == m)]
                assert np.abs(block).max() == 0.0
    # its single-excitation block equals the sector projection
    basis = single_excitation_basis(n)
    block = basis.conj().T @ h @ basis
    assert np.abs(block - project_single_excitation(model).entries).max() == 0.0


def test_full_space_size_guard():
    with pytest.raises(SizeLimitError):
        project_full_space(SpinModel(n=13))


def test_check_coupling_bounds():
    assert check_coupling_bounds(build_h_opt(8, 1.0), 1.0).ok
    assert check_coupling_bounds(build_h_opt(8, 1.0), 1.0).max_ratio == 1.0
    assert check_coupling_bounds(build_h_opt_prime(8, 1.0), 1.0).ok

    bad = SpinModel(n=3, couplings={(1, 2): 1.5})
    report = check_coupling_bounds(bad, 1.0)
    assert len(report.violations) == 1
    assert report.violations[0].label == "J_1,2"
    assert report.max_ratio == 1.5


def test_sector_matrix_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        SectorMatrix(basis_tag=SINGLE_EXCITATION,
                     entries=np.array([[0, 1], [2, 0]], dtype=complex))


def test_sector_matrices_are_hermitian_and_immutable():
    sector = project_single_excitation(build_h_opt(5, 1.0))
    dev = np.abs(sector.entries - sector.entries.conj().T).max()
    assert dev <= 1e-12
    with pytest.raises(ValueError):
        sector.entries[0, 0] = 99.0


def test_coupling_key_normalization():
    m = SpinModel(n=3, couplings={(2, 1): 1.0 + 0.5j})
    assert m.couplings == {(1, 2): 1.0 - 0.5j}
    assert m.coupling(2, 1) == 1.0 + 0.5j
    with pytest.raises(InvalidSizeError):
        SpinModel(n=3, couplings={(1, 2): 1.0, (2, 1): 1.0})
    with pytest.raises(InvalidSizeError):
        SpinModel(n=3, couplings={(1, 4): 1.0})
    with pytest.raises(InvalidSizeError):
        SpinModel(n=3, couplings={(2, 2): 1.0})


def test_json_round_trip():
    model = SpinModel(
        n=4,
        couplings={(1, 2): 0.5 - 0.25j, (3, 4): 1.0},
        zz={(2, 3): 0.75},
        fields=(0.0, 1.0, -1.0, 0.5),
    )
    doc = model.to_json_dict()
    assert doc["couplings"] == [[1, 2, 0.5, -0.25], [3, 4, 1.0, 0.0]]
    assert doc["zz"] == [[2, 3, 0.75]]
    back = SpinModel.from_json_dict(doc)
    assert back == model


def test_full_space_matches_pauli_oracle_with_zz():
    model = SpinModel(
        n=3,
        couplings={(1, 2): 0.7j, (2, 3): -0.4},
        zz={(1, 3): 0.6, (1, 2): -0.1},
        fields=(0.2, 0.0, -0.9),
    )
    assert np.abs(project_full_space(model).entries - full_hamiltonian(model)).max() < 1e-13


def test_vacuum_phase_rate_tracks_all_zero_energy():
    model = build_h_opt(6, 1.0)
    full = project_full_space(model)
    assert full.basis_tag == FULL_SPACE
    assert abs(full.entries[0, 0].real - full.vacuum_phase_rate) == 0.0
    sector = project_single_excitation(model)
    assert sector.vacuum_phase_rate == full.vacuum_phase_rate
