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
    reduce_to_effective,
)
from fcqst.exceptions import FcqstError, HermiticityError, InvalidSizeError, SizeLimitError
from fcqst.spin_model import FULL_SPACE, SINGLE_EXCITATION

from oracles import (
    coupling_bounds_loop,
    excitation_number,
    full_hamiltonian,
    full_space_from_pairs,
    h_opt_pairs,
    h_opt_prime_pairs,
    pairs_of,
    reduction_from_pairs,
    sector_from_pairs,
    single_excitation_basis,
    single_excitation_loop,
)

DICT_ORACLES = [(build_h_opt, h_opt_pairs), (build_h_opt_prime, h_opt_prime_pairs)]


def upper_pairs(model):
    """1-based pairs i < j with a nonzero coupling, in sorted order."""
    return [pair for pair, v in pairs_of(model.couplings) if v != 0]


def upper_values(model):
    return [v for _, v in pairs_of(model.couplings)]


def test_build_h_opt_n4():
    m = build_h_opt(4, 1.0)
    assert m.fields == (-2.0, 0.0, 0.0, -2.0)
    assert len(upper_pairs(m)) == 6
    assert all(v == 1.0 for v in upper_values(m))
    assert np.array_equal(m.couplings, m.couplings.conj().T)
    assert np.all(np.diagonal(m.couplings) == 0)


def test_build_h_opt_n3_j2():
    m = build_h_opt(3, 2.0)
    assert m.fields == (-3.0, 0.0, -3.0)
    assert upper_pairs(m) == [(1, 2), (1, 3), (2, 3)]
    assert all(v == 2.0 for v in upper_values(m))


def test_build_h_opt_too_small():
    with pytest.raises(InvalidSizeError):
        build_h_opt(2, 1.0)
    with pytest.raises(InvalidSizeError):
        build_h_opt_prime(2, 1.0)
    with pytest.raises(InvalidSizeError):
        build_h_opt(4, -1.0)


def test_build_h_opt_prime_n4():
    m = build_h_opt_prime(4, 1.0)
    assert (2, 3) not in upper_pairs(m)
    assert len(upper_pairs(m)) == 5
    for i, j in [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)]:
        assert m.couplings[i - 1, j - 1] == m.couplings[j - 1, i - 1] == 1.0
    assert m.fields == (-1.5, 0.0, 0.0, -1.5)


def test_build_h_opt_prime_n5_intermediates_uncoupled():
    m = build_h_opt_prime(5, 1.0)
    for i, j in [(2, 3), (2, 4), (3, 4)]:
        assert m.couplings[i - 1, j - 1] == m.couplings[j - 1, i - 1] == 0.0


def test_builders_coincide_at_n3():
    a, b = build_h_opt(3, 1.0), build_h_opt_prime(3, 1.0)
    assert np.array_equal(a.couplings, b.couplings)
    assert a.fields == b.fields == (-1.5, 0.0, -1.5)


def test_scale_covariance():
    for c in (0.5, 2.0, 7.25):
        base = build_h_opt(6, 1.0)
        scaled = build_h_opt(6, c)
        assert scaled.fields == tuple(c * f for f in base.fields)
        assert np.array_equal(scaled.couplings, c * base.couplings)


def test_permutation_symmetry_of_builders():
    # swapping two intermediate labels maps the coupling/field data to itself
    def swap(model, a, b):
        perm = {a: b, b: a}

        def p(q):
            return perm.get(q, q)

        couplings = {(p(i), p(j)): v for (i, j), v in pairs_of(model.couplings) if v != 0}
        fields = list(model.fields)
        fields[a - 1], fields[b - 1] = fields[b - 1], fields[a - 1]
        return SpinModel(n=model.n, couplings=couplings, fields=tuple(fields))

    for builder in (build_h_opt, build_h_opt_prime):
        m = builder(6, 1.0)
        for a, b in [(2, 3), (3, 5), (2, 5)]:
            s = swap(m, a, b)
            assert np.array_equal(s.couplings, m.couplings)
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
    assert upper_pairs(m) == [(1, 2)]
    assert m.couplings[0, 1] == 1.0 - 0.5j
    assert m.couplings[1, 0] == 1.0 + 0.5j
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
    assert back.n == model.n and back.fields == model.fields
    assert np.array_equal(back.couplings, model.couplings)
    assert np.array_equal(back.zz, model.zz)


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


def test_array_input_validation():
    dict_model = SpinModel(n=3, couplings={(1, 2): 0.5 - 0.25j, (3, 2): 2.0j},
                           zz={(3, 1): 0.75})
    array_model = SpinModel(n=3, couplings=dict_model.couplings, zz=dict_model.zz)
    assert np.array_equal(array_model.couplings, dict_model.couplings)
    assert np.array_equal(array_model.zz, dict_model.zz)
    assert dict_model.couplings[2, 1] == 2.0j and dict_model.couplings[1, 2] == -2.0j
    assert dict_model.zz[0, 2] == dict_model.zz[2, 0] == 0.75
    for matrix in (dict_model.couplings, dict_model.zz):
        with pytest.raises(ValueError):
            matrix[0, 1] = 9.0
    hermitian = np.array([[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidSizeError):
        SpinModel(n=4, couplings=hermitian)                    # wrong shape
    with pytest.raises(InvalidSizeError):
        SpinModel(n=3, couplings=hermitian + np.eye(3))        # nonzero diagonal
    with pytest.raises(InvalidSizeError):
        SpinModel(n=3, couplings=hermitian + np.triu(np.ones((3, 3)), 1))  # not Hermitian
    with pytest.raises(InvalidSizeError):
        SpinModel(n=3, zz=np.triu(np.ones((3, 3)), 1))         # not symmetric


def test_rejects_non_finite_model_data():
    cases = [
        lambda: SpinModel(n=3, couplings={(1, 2): float("nan")}),
        lambda: SpinModel(n=3, couplings=np.where(np.eye(3) == 1, 0.0, np.inf)),
        lambda: SpinModel(n=3, zz={(2, 3): float("inf")}),
        lambda: SpinModel(n=3, fields=(0.0, float("nan"), 0.0)),
        lambda: SectorMatrix(basis_tag=SINGLE_EXCITATION,
                             entries=np.array([[0.0, np.nan], [np.nan, 0.0]])),
        lambda: SectorMatrix(basis_tag=SINGLE_EXCITATION, entries=np.eye(2),
                             vacuum_phase_rate=float("inf")),
    ]
    for case in cases:
        with pytest.raises(FcqstError):
            case()


@pytest.mark.parametrize("builder,oracle", DICT_ORACLES)
def test_builders_match_dict_oracle(builder, oracle):
    # the array builders reproduce the pair-dict construction bit for bit
    for n in [*range(3, 13), 500]:
        couplings, fields = oracle(n, 0.7)
        model = builder(n, 0.7)
        assert model.fields == fields
        sector = project_single_excitation(model)
        entries, vac = sector_from_pairs(n, couplings.items(), (), fields)
        assert np.array_equal(sector.entries, entries)
        assert sector.vacuum_phase_rate == vac
        eff = reduce_to_effective(model)
        assert (eff.j1a, eff.jan, eff.j1n, eff.d1, eff.da, eff.dn, eff.frame_shift) \
            == reduction_from_pairs(n, couplings, fields)
        for j0 in (0.7, 0.5) if n <= 12 else (0.7,):
            report = check_coupling_bounds(model, j0)
            violations, max_ratio = coupling_bounds_loop(couplings, j0)
            assert [(v.label, v.value) for v in report.violations] == violations
            assert report.max_ratio == max_ratio


@pytest.mark.parametrize("builder,oracle", DICT_ORACLES)
def test_full_space_matches_dict_oracle(builder, oracle):
    for n in range(3, 11):
        couplings, fields = oracle(n, 0.7)
        full = project_full_space(builder(n, 0.7))
        entries, vac = full_space_from_pairs(n, couplings.items(), (), fields)
        assert np.array_equal(full.entries, entries)
        assert full.vacuum_phase_rate == vac
