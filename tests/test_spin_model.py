import threading
import warnings

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
from fcqst import (NoiseConfig, PulseParams, min_time_bisection, minimum_transfer_time,
                   optimize_pulse, spin_model)
from fcqst.exceptions import FcqstError, HermiticityError, InvalidSizeError, SizeLimitError
from fcqst.spin_model import FULL_SPACE, SINGLE_EXCITATION, _exactly_hermitian

from oracles import (
    coupling_bounds_loop,
    excitation_number,
    full_hamiltonian,
    full_space_from_pairs,
    full_space_loop,
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


@pytest.mark.parametrize("call", [
    pytest.param(lambda v: minimum_transfer_time(v, 1.0), id="minimum_transfer_time-n"),
    pytest.param(lambda v: build_h_opt(v, 1.0), id="build_h_opt-n"),
    pytest.param(lambda v: SpinModel(n=v), id="SpinModel-n"),
    pytest.param(lambda v: NoiseConfig(n=5, trials=v), id="NoiseConfig-trials"),
    pytest.param(lambda v: NoiseConfig(n=5, seed=v), id="NoiseConfig-seed"),
    pytest.param(lambda v: optimize_pulse(4, 1.0, 1.0, v, 1, 0, max_iters=1),
                 id="optimize_pulse-n_segments"),
    pytest.param(lambda v: optimize_pulse(4, 1.0, 1.0, 2, v, 0, max_iters=1),
                 id="optimize_pulse-restarts"),
    pytest.param(lambda v: optimize_pulse(4, 1.0, 1.0, 2, 1, v, max_iters=1),
                 id="optimize_pulse-seed"),
    pytest.param(lambda v: min_time_bisection(4, 1.0, 0.0, 1e-3, n_segments=v),
                 id="min_time_bisection-n_segments"),
    pytest.param(lambda v: min_time_bisection(4, 1.0, 0.0, 1e-3, restarts=v),
                 id="min_time_bisection-restarts"),
    pytest.param(lambda v: min_time_bisection(4, 1.0, 0.0, 1e-3, seed=v),
                 id="min_time_bisection-seed"),
    pytest.param(lambda v: optimize_pulse(4, 1.0, 1.0, 2, 1, 0, max_iters=v),
                 id="optimize_pulse-max_iters"),
    pytest.param(lambda v: min_time_bisection(4, 1.0, 0.0, 1e-3, max_iters=v),
                 id="min_time_bisection-max_iters"),
])
def test_integer_counts_reject_non_integers(call):
    # minimum_transfer_time(4.5, 1.0) used to return 1.047, and the other
    # calls raised a raw TypeError; numpy integers still pass
    for bad in (4.5, 4.0, "4"):
        with pytest.raises(InvalidSizeError, match="must be an integer"):
            call(bad)
    call(np.int64(4))


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


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_exact_hermitian_check_sees_one_entry_in_any_tile(n):
    # the check compares 128 x 128 tiles with their mirrors: one perturbed
    # entry must show in a diagonal tile, an off-diagonal tile and the
    # ragged last tile, from either side of the diagonal, in a matrix alone
    # and in the second matrix of a stack
    gen = np.random.default_rng(n)
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    herm = a + a.conj().T
    assert _exactly_hermitian(herm)

    def exact(m):
        alone = _exactly_hermitian(m)
        assert _exactly_hermitian(np.stack([herm, m])) == alone
        return alone

    entries = [(0, 1), (1, 0), (5, 130), (130, 5), (3, n - 1), (n - 1, 3),
               (n - 2, n - 1), (n - 1, n - 2)]
    for i, j in [(i, j) for i, j in entries if i != j and {i, j} <= set(range(n))]:
        bad = herm.copy()
        bad[i, j] = bad[j, i] = 0.0
        assert exact(bad)
        bad[i, j] = 1e-300
        assert not exact(bad)
    for i in {0, n // 2, n - 1}:
        bad = herm.copy()
        bad[i, i] += 1e-300j
        assert not exact(bad)


def test_sector_matrices_are_hermitian_and_immutable():
    sector = project_single_excitation(build_h_opt(5, 1.0))
    dev = np.abs(sector.entries - sector.entries.conj().T).max()
    assert dev <= 1e-12
    with pytest.raises(ValueError):
        sector.entries[0, 0] = 99.0


@pytest.mark.parametrize("make", [
    lambda: project_full_space(build_h_opt(4, 1.0)),
    lambda: project_single_excitation(build_h_opt(4, 1.0)),
    lambda: build_h_opt(4, 1.0),
    lambda: PulseParams(n=4, j0=1.0, total_time=1.0, j1a=[1.0], jan=[1.0], j1n=[1.0],
                        d1=[0.0], da=[0.0], dn=[0.0]),
])
def test_array_holding_dataclasses_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2 and a in {a} and b not in {a}


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


def test_rejects_fields_whose_energies_overflow():
    # each field is finite, but the projections' diagonal sums are not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for model in (lambda: SpinModel(n=4, fields=(1e308,) * 4),
                      lambda: SpinModel(n=3, zz={(1, 2): 1e308, (2, 3): -1e308}),
                      lambda: SpinModel(n=3, fields=(1e308, 0.0, 0.0), zz={(1, 3): 1e308})):
            with pytest.raises(InvalidSizeError, match="overflow"):
                model()


@pytest.mark.parametrize("n", [3, 4, 7])
def test_largest_accepted_energies_project_without_warning(n):
    # bisect the largest scale at which a model still builds; both
    # projections of that model finish without an overflow warning
    gen = np.random.default_rng(n)
    one_field, one_pair = np.eye(n)[0], np.zeros((n, n))
    one_pair[0, 1] = 1.0
    patterns = [(np.ones(n), np.ones((n, n))), (-np.ones(n), np.zeros((n, n))),
                (np.zeros(n), -np.ones((n, n))), (one_field, np.zeros((n, n))),
                (np.zeros(n), one_pair)]
    patterns += [(gen.uniform(-1, 1, n), gen.uniform(-1, 1, (n, n))) for _ in range(3)]
    for fields, zz in patterns:
        zz = np.triu(zz, 1) + np.triu(zz, 1).T

        def model(scale):
            return SpinModel(n=n, fields=tuple(scale * fields), zz=scale * zz)

        lo, hi = 0.0, np.finfo(float).max
        for _ in range(64):
            mid = lo + (hi - lo) / 2
            try:
                model(mid)
                lo = mid
            except InvalidSizeError:
                hi = mid
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            largest = model(lo)
            assert np.isfinite(project_single_excitation(largest).entries).all()
            assert all(np.isfinite(b).all() for b in project_full_space(largest).blocks)
            with pytest.raises(InvalidSizeError, match="overflow"):
                model(hi)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.inf, 1.0)])
@pytest.mark.parametrize("where", ["below", "above", "mirrored", "diagonal"])
def test_sector_matrix_rejects_non_finite_entry_anywhere(value, where):
    # finiteness is proven inside the tile comparison: an entry below, above
    # or on the diagonal, or a mirrored pair that is still equal, must raise
    n = 300
    gen = np.random.default_rng(7)
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    herm = a + a.conj().T
    for i, j in [(0, 1), (5, 130), (3, n - 1), (n - 2, n - 1)]:
        bad = herm.copy()
        if where == "diagonal":
            bad[j, j] = value
        else:
            if where in ("below", "mirrored"):
                bad[j, i] = np.conj(value)
            if where in ("above", "mirrored"):
                bad[i, j] = value
        with pytest.raises(InvalidSizeError, match="finite"):
            SectorMatrix(basis_tag=SINGLE_EXCITATION, entries=bad)


def _spy_on_workers(monkeypatch):
    """Record the worker count of every thread run the module starts."""
    seen = []
    real = spin_model.run_parallel

    def spy(tasks, count, run_task, *state):
        seen.append(count)
        return real(tasks, count, run_task, *state)

    monkeypatch.setattr(spin_model, "run_parallel", spy)
    return seen


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.inf, 1.0), "skew"])
@pytest.mark.parametrize("where", ["first tile row", "last tile row", "diagonal"])
def test_threaded_hermitian_check_rejects_bad_entry_anywhere(monkeypatch, two_cpus_one_blas_thread,
                                                            value, where):
    # a non-finite or non-Hermitian entry raises wherever it sits, and the
    # check runs on the calling thread even where two workers are usable
    n = 1024
    gen = np.random.default_rng(8)
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    bad = a + a.conj().T
    i, j = {"first tile row": (3, 700), "last tile row": (1000, 1020), "diagonal": (600, 600)}[where]
    if value == "skew":
        bad[i, j] += 1j if i == j else 1.0
        error, match = HermiticityError, "not Hermitian"
    else:
        bad[i, j] = value
        error, match = InvalidSizeError, "finite"
    seen = _spy_on_workers(monkeypatch)
    before = threading.active_count()
    with pytest.raises(error, match=match):
        SectorMatrix(basis_tag=SINGLE_EXCITATION, entries=bad)
    assert seen == []
    assert threading.active_count() == before


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


def _builder_and_random_models():
    """Both builders for n = 3-11, and random models for n = 2-9 with complex
    couplings, ZZ terms, fields and some pairs left at zero."""
    models = [builder(n, 0.7) for n in range(3, 12) for builder in (build_h_opt, build_h_opt_prime)]
    gen = np.random.default_rng(5)
    for n in range(2, 10):
        c = np.triu(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)), 1)
        z = np.triu(gen.normal(size=(n, n)), 1)
        c[gen.random((n, n)) < 0.3] = 0.0
        z[gen.random((n, n)) < 0.3] = 0.0
        models.append(SpinModel(n=n, couplings=c + c.conj().T, zz=z + z.T,
                                fields=tuple(gen.normal(size=n))))
    return models


def test_full_space_matches_pair_loop():
    # the vectorised coupling update reproduces the per-pair loop exactly
    for model in _builder_and_random_models():
        full = project_full_space(model)
        entries, vac = full_space_loop(model)
        assert np.array_equal(full.entries, entries)
        assert full.vacuum_phase_rate == vac


@pytest.mark.parametrize("n", range(2, 12))
def test_block_built_entries_are_the_dense_build(n):
    # the blocks are assembled into entries only when read, word for word
    # the matrix built on all 2^N states at once
    gen = np.random.default_rng(30 + n)
    c = np.triu(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)), 1)
    z = np.triu(gen.normal(size=(n, n)), 1)
    models = [SpinModel(n=n, couplings=c + c.conj().T, zz=z + z.T, fields=tuple(gen.normal(size=n)))]
    models += [builder(n, 0.7) for builder in (build_h_opt, build_h_opt_prime)] if n >= 3 else []
    for model in models:
        full = project_full_space(model)
        assert "entries" not in vars(full)  # not assembled yet
        dense = spin_model._hamiltonian_on(model, np.arange(1 << n))
        assert np.array_equal(full.entries.view(np.uint64), dense.view(np.uint64))
        assert full.entries is full.entries and not full.entries.flags.writeable
        assert full.dim == 1 << n and full.vacuum_phase_rate == dense[0, 0].real


def test_excitation_block_is_the_block_of_the_dense_build():
    # compared word for word, so a -0.0 where +0.0 belongs would show: the
    # dense build against the per-pair loop (a conjugated real coupling has
    # a -0.0 imaginary part, which += onto a zero entry turns into +0.0),
    # then every block built alone against the dense build's gather
    for model in _builder_and_random_models():
        full = project_full_space(model).entries
        assert np.array_equal(full.view(np.uint64), full_space_loop(model)[0].view(np.uint64))
        for k, i in enumerate(spin_model.excitation_blocks(model.n)):
            block = spin_model.excitation_block(model, k)
            assert block.dtype == complex and block.shape == (i.size, i.size)
            assert np.array_equal(block.view(np.uint64), full[np.ix_(i, i)].view(np.uint64))
