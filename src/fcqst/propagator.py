"""Exact unitary evolution of Hermitian sector matrices.

Full propagators are built from the eigendecomposition U = V e^{-i w t} V+,
which is exact (to roundoff) and unconditionally stable for the dense
Hermitian matrices this package produces.  Piecewise-constant schedules are
the only representation of time dependence, as one pair of arrays: (K,)
durations and a (K, d, d) stack of segment Hamiltonians; smooth controls
are sampled by the caller.

A 2^N full-space matrix of the model conserves excitation number, so it is
block diagonal over the basis states grouped by popcount, with blocks of
size C(N, k).  ``project_full_space`` builds it as those blocks, and
``evolve_constant`` propagates it one block per task, above
``spin_model.PARALLEL_MIN_BLOCK`` on several threads, into a zeroed 2^N
result; it never builds or reads the dense 2^N Hamiltonian.  Any other
matrix, a 2^N array from the caller included, takes one dense kernel call.
``lr_commutator_check`` needs only the vacuum and one-excitation blocks, so
it builds those two from the model (``excitation_block``) and never the
2^N matrix.

When only the evolved source state exp(-i h t)|phi_1> is needed, as in the
noise Monte Carlo, ``evolve_source`` projects onto a short Lanczos basis
(Park & Light, J. Chem. Phys. 85, 5870 (1986)) and accepts the result only
under the a-posteriori estimate analysed by Hochbruck & Lubich (SIAM J.
Numer. Anal. 34, 1911 (1997)); otherwise it returns the dense eigh column.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import (
    BasisError,
    GridMismatchError,
    InvalidSizeError,
    SizeLimitError,
)
from .spin_model import (
    EFFECTIVE3,
    NON_FINITE_MATRIX,
    SINGLE_EXCITATION,
    SectorMatrix,
    SpinModel,
    block_tasks,
    excitation_block,
    excitation_blocks,
    excitation_flat_index,
    require_finite,
    require_hermitian,
    require_transfer_size,
)
from .workers import run_parallel

LR_MAX_QUBITS = 10

KRYLOV_MAX_DIM = 40     # Lanczos basis cap
KRYLOV_TOL = 1e-14      # a-posteriori estimate a Lanczos column must meet
KRYLOV_CHECK_EVERY = 4  # Lanczos steps between estimates
# Up to this size one dense eigh costs less than a typical 16-step Lanczos
# run (crossover measured near n = 65 on a 2-CPU Xeon, one BLAS thread).
DENSE_MAX_N = 64
# Above this size a real-symmetric matrix's propagator is rebuilt from real
# products.  Against the complex product, one matrix and one BLAS thread on
# a 2-CPU Xeon: d = 16 0.88x, 24 0.90x, 32 1.03-1.08x, 48 1.23x, 64 1.17x,
# 128 2.87x, 462 1.80x.
REAL_PRODUCT_MIN_DIM = 32


def minimum_transfer_time(n: int, j0: float = 1.0) -> float:
    """Transfer time pi / (j0 sqrt(2 n)) of the named optimal constant protocols."""
    require_transfer_size(n, j0)
    return np.pi / (j0 * np.sqrt(2.0 * n))


def evolve_constant(h, t: float) -> np.ndarray:
    """exp(-i h t) of a SectorMatrix, or of an array that passes its checks.

    A matrix held as excitation blocks is propagated one block per task,
    largest first (``block_tasks``), into the zeroed 2^N result through
    ``excitation_flat_index``; any other matrix takes one dense call.
    """
    require_finite(time=t)
    if not isinstance(h, SectorMatrix):
        h = SectorMatrix(basis_tag="array", entries=h)
    if not h.blocks:
        return segment_propagators(h.entries, t)
    n = len(h.blocks) - 1
    order, workers = block_tasks(n)
    index = excitation_flat_index(n)
    u = np.zeros((1 << n, 1 << n), dtype=complex)

    def task(_, j):
        k = order[j]
        u.reshape(-1)[index[k]] = segment_propagators(h.blocks[k], t).ravel()

    run_parallel(n + 1, workers, task)
    return u


def evolve_source(h: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """exp(-i h t)|phi_1> for a Hermitian array h, and the Krylov dimension used.

    A real-symmetric h larger than ``DENSE_MAX_N`` goes through the Lanczos
    kernel; every other input, and every Lanczos run whose error estimate
    misses ``KRYLOV_TOL`` at ``KRYLOV_MAX_DIM``, takes the exact dense-eigh
    column, for which the reported dimension is 0.  The time t must be
    finite; a non-finite entry of h raises InvalidSizeError on either path.
    """
    require_finite(time=t)
    if np.iscomplexobj(h):
        if np.abs(h.imag).max() != 0.0:
            return _dense_source(h, t), 0
        h = np.ascontiguousarray(h.real)
    if h.shape[0] > DENSE_MAX_N:
        krylov = _lanczos_source(h, t)
        if krylov is not None:
            return krylov
    return _dense_source(h, t), 0


def _dense_source(h: np.ndarray, t: float) -> np.ndarray:
    if not np.isfinite(h).all():
        raise InvalidSizeError(NON_FINITE_MATRIX)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ np.ascontiguousarray(v[0].conj())


def _lanczos_source(h: np.ndarray, t: float) -> tuple[np.ndarray, int] | None:
    """Lanczos approximation of exp(-i h t) e_1 for real-symmetric h.

    The three-term recurrence is followed by one full reorthogonalisation
    pass against the basis so far.  Every ``KRYLOV_CHECK_EVERY`` steps and
    at the cap, the estimate beta_m |e_m^T exp(-i T_m t) e_1| of the
    truncation error is checked against ``KRYLOV_TOL``.  A residual at the
    roundoff level of one dense matvec (n eps ||T_m||, with the Gershgorin
    bound for ||T_m||) is a happy breakdown: the basis spans an invariant
    subspace to working precision and the projected result is exact.
    Returns the column and its Krylov dimension, or None when the estimate
    still fails at ``KRYLOV_MAX_DIM``.  An inf or NaN entry of h that the
    basis reaches makes a recurrence coefficient non-finite, which raises
    InvalidSizeError with no extra pass over h.  The products use
    ``np.dot``, which releases the GIL around its BLAS call (``@`` holds it
    up to n = 500), so the noise trials' workers propagate at once.
    """
    n = h.shape[0]
    basis = np.zeros((KRYLOV_MAX_DIM + 1, n))
    basis[0, 0] = 1.0
    alpha = np.zeros(KRYLOV_MAX_DIM)
    beta = np.zeros(KRYLOV_MAX_DIM)
    roundoff = n * np.finfo(float).eps
    norm_t = beta_prev = 0.0
    for j in range(KRYLOV_MAX_DIM):
        m = j + 1
        v = basis[j]
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, inf - inf in h's products
            w = np.dot(h, v)
            a = np.dot(v, w)
            w -= a * v
            if j:
                w -= beta_prev * basis[j - 1]
            w -= np.dot(basis[:m].T, np.dot(basis[:m], w))
            b = math.sqrt(np.dot(w, w))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidSizeError(NON_FINITE_MATRIX)
        alpha[j], beta[j] = a, b
        norm_t = max(norm_t, abs(a) + beta_prev + b)
        breakdown = b <= roundoff * norm_t
        if breakdown or m % KRYLOV_CHECK_EVERY == 0 or m == KRYLOV_MAX_DIM:
            theta, s = np.linalg.eigh(np.diag(alpha[:m]) + np.diag(beta[:j], 1)
                                     + np.diag(beta[:j], -1))
            c = s @ (np.exp(-1j * theta * t) * s[0])
            if breakdown or b * abs(c[-1]) <= KRYLOV_TOL:
                return basis[:m].T @ c, m
        basis[m] = w / b
        beta_prev = b
    return None


def segment_propagators(mats: np.ndarray, durations) -> np.ndarray:
    """exp(-i H dt) for a (..., d, d) stack of Hermitian matrices.

    ``durations`` broadcasts against the stack's leading axes: one per
    matrix, one per segment of a (C, K, d, d) stack, or a scalar.  Each
    propagator is (v e^{-i w dt}) v^H from ``eigh``; a stack without
    imaginary parts takes the real-symmetric ``eigh``, about twice as fast,
    and above ``REAL_PRODUCT_MIN_DIM`` builds U from the two real products
    (v cos(w dt)) v^T - i (v sin(w dt)) v^T.
    """
    dt = np.asarray(durations)[..., None]
    if np.abs(mats.imag).max() == 0.0:
        w, v = np.linalg.eigh(mats.real)
        if v.shape[-1] > REAL_PRODUCT_MIN_DIM:
            wt, vt = w * dt, np.swapaxes(v, -1, -2)
            u = np.empty(v.shape, dtype=complex)
            u.real = (v * np.cos(wt)[..., None, :]) @ vt
            u.imag = (v * -np.sin(wt)[..., None, :]) @ vt
            return u
        v = v.astype(complex)
    else:
        w, v = np.linalg.eigh(mats)
    phases = np.exp(-1j * w * dt)
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def ordered_product(us: np.ndarray) -> np.ndarray:
    """Time-ordered product U_K ... U_2 U_1 over axis -3 of a (..., K, d, d) stack.

    Pairwise tree reduction keeps the Python-level loop O(log K) for the
    fine grids of the residual checks, and multiplies every leading index
    (e.g. each candidate pulse) at once.
    """
    while us.shape[-3] > 1:
        k = us.shape[-3]
        merged = us[..., 1:k:2, :, :] @ us[..., 0:k - 1:2, :, :]  # later segment on the left
        if k % 2:
            merged = np.concatenate([merged, us[..., k - 1:, :, :]], axis=-3)
        us = merged
    return us[..., 0, :, :]


def _checked_schedule(durations, mats) -> tuple[np.ndarray, np.ndarray]:
    """A schedule's (K,) durations and (K, d, d) stack as float and complex arrays, checked.

    An empty schedule, a duration that is not finite and positive, or a
    shape mismatch raises GridMismatchError; the stack must pass
    ``spin_model.require_hermitian``, all matrices at once.
    """
    durations, mats = np.asarray(durations, dtype=float), np.asarray(mats, dtype=complex)
    if not (durations.size and mats.size):
        raise GridMismatchError("schedule needs at least one segment, of dimension >= 1")
    if durations.ndim != 1 or mats.shape != durations.shape + mats.shape[-1:] * 2:
        raise GridMismatchError(f"a schedule is (K,) durations and a (K, d, d) stack, "
                                f"got {durations.shape} and {mats.shape}")
    bad = durations[~(np.isfinite(durations) & (durations > 0))]
    if bad.size:
        raise GridMismatchError(f"segment durations must be finite and positive, got {bad[0]}")
    require_hermitian(mats)
    return durations, mats


def evolve_schedule(schedule) -> np.ndarray:
    """Propagator U_K ... U_1 of a (durations, mats) schedule (see ``_checked_schedule``)."""
    durations, mats = _checked_schedule(*schedule)
    return ordered_product(segment_propagators(mats, durations))


def transfer_fidelity(u: np.ndarray, basis_tag: str) -> float:
    """|<target|U|source>| for the given sector basis.

    The effective 3-level basis uses |phi_3> as the target and |phi_1> as
    the source; the single-excitation basis uses |N> and |1>.  The full
    2^N basis is rejected: use ``lr_commutator_check`` there instead.
    """
    u = np.asarray(u)
    if basis_tag == EFFECTIVE3:
        return float(abs(u[2, 0]))
    if basis_tag == SINGLE_EXCITATION:
        return float(abs(u[-1, 0]))
    raise BasisError(f"transfer fidelity undefined for basis {basis_tag!r}")


def _apply_sigma_y(psi: np.ndarray, qubit: int) -> np.ndarray:
    # sy|0> = i|1>, sy|1> = -i|0>
    idx = np.arange(psi.size)
    mask = 1 << (qubit - 1)
    amp = np.where((idx & mask) == 0, 1j, -1j)
    out = np.empty_like(psi)
    out[idx ^ mask] = amp * psi
    return out


def lr_commutator_check(model: SpinModel, t: float) -> complex:
    """<psi0| [sy_N(t), sx_1] |psi0> for the completed transfer protocol.

    psi0 is the all-|0> state and sy_N(t) is Heisenberg-evolved under the
    full 2^N unitary, composed with the free single-qubit phase gate on
    qubit N that completes the state transfer (it aligns the vacuum and
    transfer phases; without it the expectation's modulus depends on an
    N-dependent relative phase rather than on the transfer quality).  The
    vacuum is an eigenstate, so the gate leaves only the transfer amplitude:
    the result is -2i |<N|U(t)|1>| of the single-excitation sector at every
    t, and modulus exactly 2 for a perfect transfer.  Criterion 7 is thereby
    an independent 2^N check of the transfer amplitude.

    The expectation reads only U|psi0> and U sx_1|psi0>.  Every term of the
    model conserves excitation number, so these are the first columns of
    the vacuum block and of the one-excitation block of U, and only those
    two blocks of H (1 x 1 and N x N, from ``excitation_block``) are built
    and propagated; no 2^N matrix is.  The two columns are then laid out
    in the 2^N space for the gate and the sigma_y terms.
    """
    require_finite(time=t)
    if model.n > LR_MAX_QUBITS:
        raise SizeLimitError(
            f"commutator check limited to n <= {LR_MAX_QUBITS}, got n={model.n}")
    dim = 1 << model.n
    vac_col = np.zeros(dim, dtype=complex)  # U|psi0>
    src_col = np.zeros(dim, dtype=complex)  # U sx_1|psi0> = U|1>
    vac_col[0] = segment_propagators(excitation_block(model, 0), t)[0, 0]
    src_col[excitation_blocks(model.n)[1]] = segment_propagators(excitation_block(model, 1), t)[:, 0]

    vac_amp = vac_col[0]
    tgt = 1 << (model.n - 1)
    transfer_amp = src_col[tgt]

    # phase gate diag(1, e^{i theta}) on qubit N plus a global phase: makes
    # the vacuum amplitude real-positive and the transfer amplitude's phase
    # match it, as the transfer protocol prescribes.
    chi = -np.angle(vac_amp) if abs(vac_amp) > 0 else 0.0
    theta = (np.angle(vac_amp) - np.angle(transfer_amp)) if abs(transfer_amp) > 0 else 0.0
    idx = np.arange(dim)
    gate = np.exp(1j * chi) * np.where((idx & tgt) == 0, 1.0, np.exp(1j * theta))

    upsi0 = gate * vac_col
    usrc = gate * src_col
    term1 = np.vdot(upsi0, _apply_sigma_y(usrc, model.n))
    term2 = np.vdot(usrc, _apply_sigma_y(upsi0, model.n))
    return complex(term1 - term2)
