import hashlib
import math
import threading
import time

import numpy as np
import pytest

from fcqst import (
    SpinModel,
    build_h_opt,
    build_h_opt_prime,
    evolve_constant,
    evolve_schedule,
    lr_commutator_check,
    minimum_transfer_time,
    project_full_space,
    project_single_excitation,
    transfer_fidelity,
)
from fcqst import noise_mc, propagator, spin_model
from fcqst.effective3 import reduce_to_effective
from fcqst.exceptions import (
    BasisError,
    GridMismatchError,
    HermiticityError,
    InvalidSizeError,
    SizeLimitError,
)
from fcqst.propagator import (
    DENSE_MAX_N,
    KRYLOV_MAX_DIM,
    REAL_PRODUCT_MIN_DIM,
    _lanczos_source,
    evolve_source,
    ordered_product,
    segment_propagators,
)
from fcqst.spin_model import (
    EFFECTIVE3,
    FULL_SPACE,
    HERMITICITY_TOL,
    SINGLE_EXCITATION,
    SectorMatrix,
    _exactly_hermitian,
    excitation_blocks,
)

from oracles import (
    complex_product_propagator,
    eig_propagator,
    excitation_number,
    lr_commutator_dense,
    sequential_product,
    transfer_form_unitary,
    unbatched_eigh_propagator,
)


def _random_hermitian(dim, seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def _hermitian_stack(shape, dim, real, seed):
    gen = np.random.default_rng(seed)
    a = gen.normal(size=shape + (dim, dim))
    if not real:
        a = a + 1j * gen.normal(size=shape + (dim, dim))
    return ((a + np.swapaxes(a.conj(), -1, -2)) / 2).astype(complex)


@pytest.mark.parametrize("dim", [2, 3, 12, 64])
def test_evolve_constant_is_the_unbatched_formula(dim):
    herm = _random_hermitian(dim, dim)
    for h in (herm.real, herm.real.astype(complex), herm):
        for t in (0.0, 0.37, 5.0):
            assert np.array_equal(evolve_constant(h, t), unbatched_eigh_propagator(h, t))


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("dim", [3, 6])
def test_segment_propagators_on_candidate_stacks(dim, real):
    mats = _hermitian_stack((4, 5), dim, real, seed=dim)
    per_segment = np.linspace(0.1, 1.3, 5)
    per_matrix = np.linspace(0.2, 2.1, 20).reshape(4, 5)
    for durations in (per_segment, per_matrix):
        us = segment_propagators(mats, durations)
        assert us.shape == (4, 5, dim, dim)
        dts = np.broadcast_to(durations, (4, 5))
        for c in range(4):
            for k in range(5):
                expected = eig_propagator(mats[c, k], dts[c, k])
                assert np.abs(us[c, k] - expected).max() < 1e-13


@pytest.mark.parametrize("dim", [REAL_PRODUCT_MIN_DIM + 1, 64, 128, 252])
def test_real_products_above_the_crossover(dim):
    # real stacks above the crossover take the two real products: within
    # 1e-13 of the complex formula, and unitary to 1e-13
    mats = _hermitian_stack((3,), dim, True, seed=dim)
    durations = np.array([0.37, 1.0, -2.5])
    us = segment_propagators(mats, durations)
    for u, h, dt in zip(us, mats, durations):
        assert np.abs(u - complex_product_propagator(h, dt)).max() < 1e-13
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-13


@pytest.mark.parametrize("shape, dim", [((96, 8), 3), ((5,), 16), ((4,), REAL_PRODUCT_MIN_DIM)])
def test_real_stacks_at_or_below_the_crossover_keep_the_complex_formula(shape, dim):
    # pulse-search stacks and small blocks stay bit-identical to (v e^{-i w t}) v^H
    mats = _hermitian_stack(shape, dim, True, seed=dim)
    durations = np.linspace(0.1, 1.3, shape[-1])
    dts = np.broadcast_to(durations, shape)
    us = segment_propagators(mats, durations)
    for idx in np.ndindex(shape):
        assert np.array_equal(us[idx], complex_product_propagator(mats[idx], dts[idx]))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_ordered_product_on_candidate_stacks(k):
    us = segment_propagators(_hermitian_stack((4, k), 3, False, seed=k), np.full(k, 0.7))
    products = ordered_product(us)
    assert products.shape == (4, 3, 3)
    assert np.abs(products - sequential_product(us)).max() < 1e-13
    for c in range(4):  # one (K, d, d) stack, as a schedule passes it
        assert np.array_equal(ordered_product(us[c]), products[c])


def test_zero_hamiltonian_gives_identity():
    u = evolve_constant(np.zeros((4, 4)), 5.0)
    assert np.abs(u - np.eye(4)).max() < 1e-15


def test_half_rabi_period():
    u = evolve_constant(np.array([[0, 1], [1, 0]], dtype=complex), np.pi / 2)
    assert abs(u[0, 0]) < 1e-14 and abs(u[1, 1]) < 1e-14
    assert abs(u[0, 1] + 1j) < 1e-14 and abs(u[1, 0] + 1j) < 1e-14


@pytest.mark.parametrize("n,t", [(8, np.pi / 4), (50, np.pi / 10)])
def test_optimal_matrix_transfers_at_quoted_time(n, t):
    h = reduce_to_effective(build_h_opt(n, 1.0)).sector_matrix()
    u = evolve_constant(h, t)
    assert abs(abs(u[2, 0]) - 1.0) < 1e-10


def test_non_hermitian_rejected():
    # a matrix, and a schedule stack with one bad segment, under SectorMatrix's
    # rule: not Hermitian beyond tolerance, or not finite
    with pytest.raises(HermiticityError):
        evolve_constant(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)
    stack = np.stack([_random_hermitian(3, 0), _random_hermitian(3, 1)])
    skewed, nan = stack.copy(), stack.copy()
    skewed[1, 0, 2] += 1e-6
    nan[1, 1, 1] = np.nan
    for mats, error in ((skewed, HermiticityError), (nan, InvalidSizeError)):
        with pytest.raises(error):
            evolve_schedule((np.ones(2), mats))


def test_schedule_single_segment_matches_constant():
    h = _random_hermitian(3, 0)
    sched = (np.array([0.7]), np.array([h]))
    assert np.abs(evolve_schedule(sched) - evolve_constant(h, 0.7)).max() < 1e-14


def test_schedule_semigroup_property():
    h = _random_hermitian(3, 1)
    sched = (np.array([0.3, 0.9]), np.array([h, h]))
    assert np.abs(evolve_schedule(sched) - evolve_constant(h, 1.2)).max() < 1e-12


def test_schedule_forward_backward_cancels():
    h = _random_hermitian(3, 2)
    sched = (np.array([0.4, 0.4]), np.array([h, -h]))
    assert np.abs(evolve_schedule(sched) - np.eye(3)).max() < 1e-12


def test_schedule_ordering_is_right_to_left():
    a = np.diag([1.0, -1.0, 0.0]).astype(complex)
    b = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    sched = (np.array([0.5, 0.5]), np.array([a, b]))
    expected = evolve_constant(b, 0.5) @ evolve_constant(a, 0.5)
    assert np.abs(evolve_schedule(sched) - expected).max() < 1e-14


def test_schedule_contract_violations():
    zeros = np.zeros((1, 3, 3))
    with pytest.raises(GridMismatchError, match="finite and positive"):
        evolve_schedule((np.array([0.0]), zeros))
    for durations, mats in ((np.empty(0), np.empty((0, 3, 3))),
                            (np.ones(1), np.zeros((1, 0, 0)))):
        with pytest.raises(GridMismatchError, match="at least one segment"):
            evolve_schedule((durations, mats))
    # durations and stack must be (K,) and (K, d, d)
    for durations, mats in ((np.ones(2), zeros), (np.ones((1, 1)), zeros),
                            (np.ones(1), np.zeros((1, 3, 2))), (np.ones(1), np.zeros((3, 3)))):
        with pytest.raises(GridMismatchError, match="stack"):
            evolve_schedule((durations, mats))


def test_transfer_fidelity_conventions():
    assert transfer_fidelity(np.eye(3), EFFECTIVE3) == 0.0
    u = transfer_form_unitary(np.pi / 2, 0.0, 0.3, -0.1)
    assert abs(transfer_fidelity(u, EFFECTIVE3) - 1.0) < 1e-15
    u = transfer_form_unitary(0.4, 0.1, 0.2, 0.0)
    assert abs(transfer_fidelity(u, EFFECTIVE3) - np.sin(0.4)) < 1e-15
    with pytest.raises(BasisError):
        transfer_fidelity(np.eye(4), FULL_SPACE)


@pytest.mark.parametrize("dim", [3, 50, 200, 500])
def test_unitarity_of_produced_propagators(dim):
    u = evolve_constant(_random_hermitian(dim, dim), 2.37)
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-11


def test_energy_and_norm_conservation():
    h = _random_hermitian(6, 5)
    psi = np.zeros(6, dtype=complex)
    psi[0] = 1.0
    e0 = np.vdot(psi, h @ psi).real
    for t in np.linspace(0.1, 3.0, 7):
        evolved = evolve_constant(h, t) @ psi
        assert abs(np.vdot(evolved, h @ evolved).real - e0) < 1e-10
        assert abs(np.linalg.norm(evolved) - 1.0) < 1e-12


def test_time_scaling_equivalence():
    h = _random_hermitian(4, 9)
    for c in (0.25, 3.0):
        a = evolve_constant(c * h, 0.8)
        b = evolve_constant(h, c * 0.8)
        assert np.abs(a - b).max() < 1e-12


def test_matches_independent_eigendecomposition():
    h = _random_hermitian(12, 11)
    assert np.abs(evolve_constant(h, 1.234) - eig_propagator(h, 1.234)).max() < 1e-12


def _noisy_real(n, sigma, seed=3):
    cfg = noise_mc.NoiseConfig(n=n, sigma_c=sigma, sigma_f=sigma, trials=1, seed=seed)
    h = noise_mc.sample_noisy_hamiltonian(cfg, trial=0).entries.real
    return np.ascontiguousarray(h), cfg.transfer_time()


@pytest.mark.parametrize("sigma", [0.0, 0.1, 2.0])
@pytest.mark.parametrize("n", [41, 100, 500])
def test_lanczos_matches_dense_column(n, sigma):
    h, t = _noisy_real(n, sigma)
    psi, dim = _lanczos_source(h, t)
    assert 0 < dim <= KRYLOV_MAX_DIM
    if sigma == 0.0:
        assert dim <= 4  # the base spans 3 dimensions: happy breakdown
    assert np.abs(psi - eig_propagator(h, t)[:, 0]).max() < 1e-13
    if n > DENSE_MAX_N:
        assert np.array_equal(evolve_source(h, t)[0], psi)  # the path trials take


def _frozen_lanczos_input(n, kind):
    # a dense symmetric matrix with spectrum in about [-2, 2], or a diagonal
    # one whose first site couples to three others, so the Krylov space of
    # e_1 is 4-dimensional and the recurrence breaks down at m = 4
    gen = np.random.default_rng(1000 * n + (kind == "near_diagonal"))
    if kind == "dense":
        a = gen.normal(size=(n, n)) / math.sqrt(n)
        return a + a.T, 1.3
    h = np.diag(gen.normal(size=n))
    h[0, 1:4] = h[1:4, 0] = gen.normal(size=3)
    return h, 2.1


def test_lanczos_columns_match_frozen_digest():
    # SHA-256 of the columns and Krylov dimensions, frozen by direct
    # evaluation with one BLAS thread and with the default threads: a change
    # to the kernel's arithmetic, not only to its accuracy, moves it
    digest = hashlib.sha256()
    dims = []
    for n in (65, 100, 257, 500, 640):
        for kind in ("dense", "near_diagonal"):
            psi, dim = evolve_source(*_frozen_lanczos_input(n, kind))
            digest.update(psi.tobytes())
            digest.update(dim.to_bytes(2, "little"))
            dims.append(dim)
    assert dims == [24, 4] * 5
    assert digest.hexdigest() == "2870584f30ba4054857777bf37d56b08a365333052f0414b3ede03daefd0a34d"


def test_evolve_source_falls_back_to_dense_when_estimate_fails():
    h, t = _noisy_real(100, 0.1)
    long_t = 50.0 * t  # needs a Krylov basis far beyond the cap
    psi, dim = evolve_source(h, long_t)
    assert dim == 0
    assert np.abs(psi - eig_propagator(h, long_t)[:, 0]).max() < 1e-13


def test_evolve_source_dense_inputs():
    # up to DENSE_MAX_N, and for complex entries, the dense column is used
    h, t = _noisy_real(DENSE_MAX_N, 0.1)
    psi, dim = evolve_source(h, t)
    assert dim == 0
    assert np.abs(psi - eig_propagator(h, t)[:, 0]).max() < 1e-13

    hc = _random_hermitian(DENSE_MAX_N + 10, 4)
    psi, dim = evolve_source(hc, 0.3)
    assert dim == 0
    assert np.abs(psi - eig_propagator(hc, 0.3)[:, 0]).max() < 1e-13

    # complex storage with zero imaginary part takes the real Lanczos path
    h, t = _noisy_real(DENSE_MAX_N + 10, 0.1)
    psi, dim = evolve_source(h.astype(complex), t)
    assert dim > 0
    assert np.abs(psi - eig_propagator(h, t)[:, 0]).max() < 1e-13


def test_minimum_transfer_time_values():
    assert abs(minimum_transfer_time(8, 1.0) - np.pi / 4) < 1e-15
    assert abs(minimum_transfer_time(3, 1.0) - np.pi / np.sqrt(6)) < 1e-15
    assert abs(minimum_transfer_time(4, 2.0) - np.pi / (2 * np.sqrt(8))) < 1e-15


def test_minimum_transfer_time_rejects_bad_j0():
    for j0 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidSizeError, match="j0"):
            minimum_transfer_time(5, j0)
    # n = 0 used to divide by zero and n = -1 to return NaN
    for n in (2, 0, -1):
        with pytest.raises(InvalidSizeError, match="n >= 3"):
            minimum_transfer_time(n, 1.0)


def test_lr_commutator_trivial_cases():
    model = build_h_opt(4, 1.0)
    assert abs(lr_commutator_check(model, 0.0)) < 1e-12
    empty = SpinModel(n=4)
    assert abs(lr_commutator_check(empty, 1.7)) < 1e-12


def test_lr_commutator_signature_at_transfer_time():
    model = build_h_opt(5, 1.0)
    value = lr_commutator_check(model, minimum_transfer_time(5, 1.0))
    assert abs(abs(value) - 2.0) < 1e-10
    # phase convention: the completed protocol gives -2i with these Paulis
    assert abs(value + 2j) < 1e-10


def test_lr_commutator_size_guard():
    with pytest.raises(SizeLimitError):
        lr_commutator_check(SpinModel(n=11), 1.0)


@pytest.mark.parametrize("builder, n", [(b, n) for b in (build_h_opt, build_h_opt_prime)
                                        for n in range(3, 11)] + [(None, n) for n in range(2, 11)])
def test_lr_commutator_matches_full_propagator_form(builder, n):
    # the two-column commutator reproduces the whole gated 2^N propagator's
    # value bit for bit
    model = builder(n, 1.0) if builder else _random_model(n, 70 + n)
    # pi / sqrt(2 n) written out, since minimum_transfer_time rejects n = 2
    for t in (0.0, 0.37, np.pi / np.sqrt(2.0 * n)):
        assert lr_commutator_check(model, t) == lr_commutator_dense(model, t)


@pytest.mark.parametrize("builder", [build_h_opt, build_h_opt_prime])
@pytest.mark.parametrize("n", range(3, 11))
def test_lr_commutator_is_minus_two_i_times_transfer_amplitude(builder, n):
    # the vacuum is an eigenstate, so the phase gate leaves only |<N|U(t)|1>|
    model = builder(n, 1.0)
    sector = project_single_excitation(model)
    for f in (0.0, 0.37, 1.0, 1.7):
        t = f * minimum_transfer_time(n, 1.0)
        amp = abs(evolve_constant(sector, t)[-1, 0])
        assert abs(lr_commutator_check(model, t) - (-2j * amp)) < 1e-14


@pytest.mark.parametrize("builder, n", [(b, n) for b in (build_h_opt, build_h_opt_prime)
                                        for n in range(3, 11)] + [(None, n) for n in range(2, 11)])
def test_lr_commutator_builds_no_full_space_matrix(monkeypatch, builder, n):
    model = builder(n, 1.0) if builder else _random_model(n, 70 + n)
    times = (0.0, 0.37, np.pi / np.sqrt(2.0 * n))
    expected = [lr_commutator_dense(model, t) for t in times]

    def no_full_space(_):
        raise AssertionError("the commutator built a 2^N matrix")

    sizes = []
    real = spin_model._hamiltonian_on

    def spy(m, states):
        sizes.append(states.size)
        return real(m, states)

    monkeypatch.setattr(spin_model, "project_full_space", no_full_space)
    monkeypatch.setattr(propagator, "project_full_space", no_full_space, raising=False)
    monkeypatch.setattr(spin_model, "_hamiltonian_on", spy)
    for t, value in zip(times, expected):
        assert lr_commutator_check(model, t) == value
    assert sizes == [1, n] * len(times)


def test_sector_equivalence_full_vs_single_excitation():
    # evolving the 2^N matrix and the N-dim sector from |phi_1> agree
    from fcqst import project_full_space

    for n in (3, 6, 8):
        model = build_h_opt(n, 1.0)
        t = 0.37
        u_full = evolve_constant(project_full_space(model), t)
        u_sect = evolve_constant(project_single_excitation(model), t)
        src, tgt = 1 << 0, 1 << (n - 1)
        for q in range(n):
            assert abs(u_full[1 << q, src] - u_sect[q, 0]) < 1e-10
        assert abs(u_full[tgt, src] - u_sect[-1, 0]) < 1e-10


def _random_model(n, seed):
    """Complex couplings, ZZ terms and fields on every pair and qubit."""
    gen = np.random.default_rng(seed)
    c = np.triu(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)), 1)
    z = np.triu(gen.normal(size=(n, n)), 1)
    return SpinModel(n=n, couplings=c + c.conj().T, zz=z + z.T,
                     fields=tuple(gen.normal(size=n)))


@pytest.mark.parametrize("n", range(3, 10))
def test_full_space_propagator_by_excitation_blocks(n):
    h = project_full_space(_random_model(n, 40 + n))
    num = excitation_number(n)
    for t in (0.37, 1.0):
        u = evolve_constant(h, t)
        assert np.abs(u - eig_propagator(h.entries, t)).max() < 1e-12
        assert not u[num[:, None] != num[None, :]].any()  # exactly zero between blocks


@pytest.mark.parametrize("n", [10, 11])
def test_block_built_propagator_at_ten_and_eleven_qubits(n):
    h = project_full_space(_random_model(n, 40 + n))
    num = excitation_number(n)
    u = evolve_constant(h, 0.37)
    assert np.abs(u - eig_propagator(h.entries, 0.37)).max() < 1e-12
    assert not u[num[:, None] != num[None, :]].any()  # exactly zero between blocks


@pytest.mark.parametrize("builder", [build_h_opt, build_h_opt_prime])
def test_full_space_oracle_builds_no_dense_matrix(monkeypatch, builder):
    # at N = 11 the matrix is built and propagated block by block: nothing
    # of 2^N rows is built, and the dense entries are never assembled
    n = 11
    sizes = []
    real = spin_model._hamiltonian_on

    def spy(m, states):
        sizes.append(states.size)
        return real(m, states)

    monkeypatch.setattr(spin_model, "_hamiltonian_on", spy)
    h = project_full_space(builder(n, 1.0))
    u = evolve_constant(h, 0.37)
    assert sorted(sizes) == sorted(math.comb(n, k) for k in range(n + 1))
    assert "entries" not in vars(h)
    assert u.shape == (1 << n, 1 << n)


def _spy_on_workers(monkeypatch, workers=None, module=propagator):
    """Record the worker count of every run_parallel call of ``module``; force it to ``workers`` if given."""
    seen = []
    real = module.run_parallel

    def spy(tasks, count, run_task, *state):
        count = count if workers is None else min(tasks, workers)
        seen.append(count)
        return real(tasks, count, run_task, *state)

    monkeypatch.setattr(module, "run_parallel", spy)
    return seen


@pytest.mark.parametrize("n, model", [(10, "opt"), (11, "opt"), (10, "random")])
def test_block_propagator_is_independent_of_the_worker_count(monkeypatch, n, model):
    h = project_full_space(build_h_opt(n, 1.0) if model == "opt" else _random_model(n, 90 + n))
    num = excitation_number(n)
    results = []
    for workers in (1, 2, 3):
        with monkeypatch.context() as m:
            seen = _spy_on_workers(m, workers)
            results.append(evolve_constant(h, 0.37))
        assert seen == [workers]
    for u in results:
        assert np.array_equal(u, results[0])
        assert not u[num[:, None] != num[None, :]].any()  # exactly zero between blocks


def test_block_propagator_threads_only_above_the_crossover(monkeypatch, two_cpus_one_blas_thread):
    # one task per excitation block, on two threads from N = 10 on: the
    # build in project_full_space and the propagation in evolve_constant
    builds = _spy_on_workers(monkeypatch, module=spin_model)
    propagations = _spy_on_workers(monkeypatch)
    for n in (9, 10):
        evolve_constant(project_full_space(build_h_opt(n, 1.0)), 0.37)
    assert math.comb(9, 4) <= spin_model.PARALLEL_MIN_BLOCK < math.comb(10, 5)
    assert builds == [1, 2]
    assert propagations == [1, 2]


def test_failing_block_build_fails_the_call_and_leaves_no_thread(monkeypatch,
                                                               two_cpus_one_blas_thread):
    # a block task whose block fails the exact Hermitian check raises it
    real = spin_model._hamiltonian_on

    def nan_in_largest(model, states):
        h = real(model, states)
        if states.size == math.comb(10, 5):
            h[1, 2] = np.nan
        return h

    monkeypatch.setattr(spin_model, "_hamiltonian_on", nan_in_largest)
    before = threading.active_count()
    with pytest.raises(InvalidSizeError, match="finite"):
        project_full_space(build_h_opt(10, 1.0))
    assert threading.active_count() == before


class _BlockFailure(Exception):
    pass


@pytest.mark.parametrize("failing", ["helper", "main"])
def test_failing_block_fails_the_call_and_leaves_no_thread(monkeypatch, two_cpus_one_blas_thread,
                                                           failing):
    h = project_full_space(build_h_opt(10, 1.0))
    real = propagator.segment_propagators

    def flaky(mats, durations):
        on_main = threading.current_thread() is threading.main_thread()
        if on_main == (failing == "main"):
            raise _BlockFailure(failing)
        time.sleep(0.005)  # leave blocks for the other worker
        return real(mats, durations)

    monkeypatch.setattr(propagator, "segment_propagators", flaky)
    before = threading.active_count()
    with pytest.raises(_BlockFailure, match=failing):
        evolve_constant(h, 0.37)
    assert threading.active_count() == before


def test_full_space_matrix_mixing_excitation_numbers_takes_dense_path():
    entries = np.array(project_full_space(build_h_opt(4, 1.0)).entries)
    entries[0, 1] = entries[1, 0] = 0.3  # couples excitation numbers 0 and 1
    h = SectorMatrix(basis_tag=FULL_SPACE, entries=entries)
    assert not h.blocks
    u = evolve_constant(h, 0.37)
    assert np.array_equal(u, segment_propagators(h.entries, 0.37))
    assert abs(u[1, 0]) > 0.0


def test_off_block_negative_zero_takes_dense_path():
    # a caller's 2^N matrix is never split into blocks, whatever its entries
    entries = np.array(project_full_space(build_h_opt(4, 1.0)).entries)
    entries[0, 1] = entries[1, 0] = -0.0  # between excitation numbers 0 and 1
    h = SectorMatrix(basis_tag=FULL_SPACE, entries=entries)
    assert not h.blocks
    assert np.array_equal(evolve_constant(h, 0.37), segment_propagators(h.entries, 0.37))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mixing_matrix_takes_dense_path_with_any_worker_count(monkeypatch, workers):
    # a caller's 2^N matrix is checked whole on the calling thread and
    # propagated by one dense call, whatever the worker count
    entries = np.array(project_full_space(build_h_opt(10, 1.0)).entries)
    entries[0, 1] = entries[1, 0] = 0.3  # couples excitation numbers 0 and 1
    before = threading.active_count()
    checks = _spy_on_workers(monkeypatch, workers, module=spin_model)
    h = SectorMatrix(basis_tag=FULL_SPACE, entries=entries)
    blocks = _spy_on_workers(monkeypatch, workers)
    u = evolve_constant(h, 0.37)
    assert checks == [] and blocks == []
    assert threading.active_count() == before
    assert not h.blocks
    assert np.array_equal(u, segment_propagators(h.entries, 0.37))
    assert abs(u[1, 0]) > 0.0


@pytest.mark.parametrize("n", [6, 10])
def test_fortran_ordered_full_space_matrix_gives_the_same_propagator(n):
    entries = project_full_space(_random_model(n, 60 + n)).entries
    c_order = SectorMatrix(basis_tag=FULL_SPACE, entries=entries)
    f_entries = np.asfortranarray(entries)
    f_entries.flags.writeable = False
    f_order = SectorMatrix(basis_tag=FULL_SPACE, entries=f_entries)
    assert f_order.entries is f_entries and not f_entries.flags.c_contiguous  # kept as given
    assert c_order.entries is entries and entries.flags.c_contiguous
    for t in (0.37, 1.0):
        assert np.array_equal(evolve_constant(f_order, t), evolve_constant(c_order, t))


@pytest.mark.parametrize("n", range(2, 10))
def test_excitation_block_columns_are_columns_of_the_propagator(n):
    # each block built alone and propagated by itself, as the commutator
    # does for blocks 0 and 1, is exactly that block of the 2^N propagator
    models = [_random_model(n, 80 + n)] + ([build_h_opt(n, 1.0)] if n >= 3 else [])
    for model in models:
        h = project_full_space(model)
        assert len(h.blocks) == n + 1
        for t in (0.0, 0.37, -1.2):
            u = evolve_constant(h, t)
            for k, i in enumerate(excitation_blocks(n)):
                assert np.array_equal(segment_propagators(spin_model.excitation_block(model, k), t),
                                      u[np.ix_(i, i)])


def _spy_on_checks(monkeypatch):
    """Record the shape of every matrix the exact Hermitian check reads."""
    calls = []
    real = spin_model._exactly_hermitian

    def spy(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(spin_model, "_exactly_hermitian", spy)
    return calls


@pytest.mark.parametrize("n", [4, 10])
def test_blocks_are_checked_once_at_build(monkeypatch, n):
    # each block is checked once, when it is built; propagating the matrix
    # and the commutator check (blocks 0 and 1 built alone) check nothing
    model = build_h_opt(n, 1.0)
    calls = _spy_on_checks(monkeypatch)
    h = project_full_space(model)
    assert sorted(calls) == sorted((i.size, i.size) for i in excitation_blocks(n))
    calls.clear()
    evolve_constant(h, 0.37)
    assert calls == []
    lr_commutator_check(model, 0.37)
    assert calls == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.inf, 1.0)])
@pytest.mark.parametrize("n", [4, 10])
def test_off_block_non_finite_entry_raises(n, value):
    # a caller's 2^N matrix is checked whole, so an entry between blocks shows
    entries = np.array(project_full_space(build_h_opt(n, 1.0)).entries)
    entries[0, 1] = value  # between excitation numbers 0 and 1
    with pytest.raises(InvalidSizeError, match="finite"):
        SectorMatrix(basis_tag=FULL_SPACE, entries=entries)
    entries[1, 0] = np.conj(value)  # a mirrored pair
    with pytest.raises(InvalidSizeError, match="finite"):
        SectorMatrix(basis_tag=FULL_SPACE, entries=entries)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(np.inf, 1.0)])
@pytest.mark.parametrize("n", [4, 10])
def test_in_block_non_finite_entry_raises(n, value):
    # the whole-matrix check finds it inside a block too
    full = np.array(project_full_space(build_h_opt(n, 1.0)).entries)
    dim = 1 << n
    for i, j in [(0, 0), (1, 2), (2, 1), (3, 5), (3, 3), (dim - 1, dim - 1)]:
        entries = full.copy()
        entries[i, j] = value
        with pytest.raises(InvalidSizeError, match="finite"):
            SectorMatrix(basis_tag=FULL_SPACE, entries=entries)


@pytest.mark.parametrize("n", [4, 10])
def test_hermitian_defect_within_tolerance_takes_the_dense_path(n):
    entries = np.array(project_full_space(_random_model(n, 70 + n)).entries)
    entries[1, 2] += 1e-15  # inside excitation block 1, not mirrored
    h = SectorMatrix(basis_tag=FULL_SPACE, entries=entries)
    assert not h.blocks and not _exactly_hermitian(h.entries)
    for t in (0.37, 1.0):
        assert np.array_equal(evolve_constant(h, t), segment_propagators(entries, t))
    entries[1, 2] += 1e-6  # beyond HERMITICITY_TOL: the whole-matrix deviation is reported
    herm = np.abs(entries - entries.conj().T).max()
    assert herm > HERMITICITY_TOL * np.abs(entries).max()
    with pytest.raises(HermiticityError, match=f"max deviation {herm:.3e}"):
        SectorMatrix(basis_tag=FULL_SPACE, entries=entries)


def test_non_power_of_two_full_space_matrix_raises_after_the_hermitian_check(monkeypatch):
    # a caller's matrix is never split into blocks: the whole-matrix
    # Hermitian check comes first, so a non-Hermitian matrix keeps its error class
    calls = _spy_on_checks(monkeypatch)
    for dim in (3, 6, 12):
        with pytest.raises(BasisError, match="power of 2"):
            SectorMatrix(basis_tag=FULL_SPACE, entries=np.eye(dim))
        skew = np.eye(dim, dtype=complex)
        skew[0, 1] = 1.0
        with pytest.raises(HermiticityError):
            SectorMatrix(basis_tag=FULL_SPACE, entries=skew)
    assert calls == [(dim, dim) for dim in (3, 6, 12) for _ in range(2)]


def test_empty_full_space_matrix_builds_without_blocks():
    h = SectorMatrix(basis_tag=FULL_SPACE, entries=np.zeros((0, 0)))
    assert h.dim == 0 and not h.blocks


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_time_rejected(t):
    model = build_h_opt(4, 1.0)
    inputs = [np.eye(2), project_single_excitation(model), project_full_space(model),
              reduce_to_effective(model).sector_matrix()]
    for h in inputs:
        with pytest.raises(InvalidSizeError, match="time"):
            evolve_constant(h, t)
    with pytest.raises(InvalidSizeError, match="time"):
        lr_commutator_check(model, t)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [8, DENSE_MAX_N, DENSE_MAX_N + 36])
def test_evolve_source_rejects_non_finite_time(n, t):
    h, _ = _noisy_real(n, 0.1)
    for mat in (h, h.astype(complex), _random_hermitian(n, 4)):
        with pytest.raises(InvalidSizeError, match="time"):
            evolve_source(mat, t)


@pytest.mark.parametrize("bad", ["all_nan", "inf_pair", "nan_diagonal"])
@pytest.mark.parametrize("kind", ["real", "complex_storage", "complex"])
@pytest.mark.parametrize("n", [8, 65, 200])
def test_evolve_source_rejects_non_finite_matrix(n, kind, bad):
    # the dense path (n = 8, complex entries) and the Lanczos path (real
    # values above DENSE_MAX_N) both raise, for a bad entry off column 0 too
    h, t = _noisy_real(n, 0.1)
    h = {"real": h, "complex_storage": h.astype(complex),
         "complex": h + 1j * np.imag(_random_hermitian(n, 4))}[kind]
    if bad == "all_nan":
        h[:] = np.nan
    elif bad == "inf_pair":
        h[2, n - 1] = h[n - 1, 2] = np.inf
    else:
        h[3, 3] = np.nan
    with pytest.raises(InvalidSizeError, match="finite"):
        evolve_source(h, t)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_schedule_rejects_non_finite_duration(dt):
    h = np.diag([1.0, -1.0, 0.0])
    with pytest.raises(GridMismatchError, match="finite"):
        evolve_schedule((np.array([dt]), np.array([h])))
    with pytest.raises(GridMismatchError, match="finite"):
        evolve_schedule((np.array([0.5, dt]), np.array([h, h])))


def test_negative_time_runs_backwards():
    model = build_h_opt(4, 1.0)
    full = project_full_space(model)
    u = evolve_constant(full, 0.37)
    assert np.abs(evolve_constant(full, -0.37) - u.conj().T).max() < 1e-14
    assert np.isfinite(lr_commutator_check(model, -0.37))


def test_other_bases_keep_the_dense_formula():
    # the block path is chosen by the FULL_SPACE tag alone: the same
    # block-diagonal 2^3 matrix under any other tag, and the sector and
    # 3-level matrices, reproduce the one-matrix formula bit for bit
    model = _random_model(3, 7)
    full = project_full_space(model).entries
    inputs = [full, SectorMatrix(basis_tag=SINGLE_EXCITATION, entries=full),
              project_single_excitation(model), project_single_excitation(build_h_opt(9, 1.0)),
              reduce_to_effective(build_h_opt(9, 1.0)).sector_matrix()]
    for h in inputs:
        entries = h.entries if isinstance(h, SectorMatrix) else h
        for t in (0.0, 0.37, 5.0):
            assert np.array_equal(evolve_constant(h, t), unbatched_eigh_propagator(entries, t))


@pytest.mark.parametrize("builder", [build_h_opt, build_h_opt_prime])
def test_sector_equivalence_at_eleven_qubits(builder):
    # criterion 6's three-way amplitude check at the bench's largest size
    n = 11
    t = minimum_transfer_time(n, 1.0) * 0.77
    model = builder(n, 1.0)
    amp_full = evolve_constant(project_full_space(model), t)[1 << (n - 1), 1]
    amp_sect = evolve_constant(project_single_excitation(model), t)[-1, 0]
    eff = reduce_to_effective(model)
    amp_eff = evolve_constant(eff.sector_matrix(), t)[2, 0] * np.exp(-1j * eff.frame_shift * t)
    assert abs(amp_full - amp_sect) <= 1e-10
    assert abs(amp_sect - amp_eff) <= 1e-10
