"""Exact unitary evolution of Hermitian sector matrices.

Full propagators are built from the eigendecomposition U = V e^{-i w t} V+,
which is exact (to roundoff) and unconditionally stable for the dense
Hermitian matrices this package produces.  Piecewise-constant schedules are
the only representation of time dependence; smooth controls are sampled by
the caller.

When only the evolved source state exp(-i h t)|phi_1> is needed, as in the
noise Monte Carlo, ``evolve_source`` projects onto a short Lanczos basis
(Park & Light, J. Chem. Phys. 85, 5870 (1986)) and accepts the result only
under the a-posteriori estimate analysed by Hochbruck & Lubich (SIAM J.
Numer. Anal. 34, 1911 (1997)); otherwise it returns the dense eigh column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BasisError,
    GridMismatchError,
    SizeLimitError,
)
from .spin_model import (
    EFFECTIVE3,
    SINGLE_EXCITATION,
    SectorMatrix,
    SpinModel,
    project_full_space,
    require_positive_j0,
)

LR_MAX_QUBITS = 10

KRYLOV_MAX_DIM = 40     # Lanczos basis cap
KRYLOV_TOL = 1e-14      # a-posteriori estimate a Lanczos column must meet
KRYLOV_CHECK_EVERY = 4  # Lanczos steps between estimates
# Up to this size one dense eigh costs less than a typical 16-step Lanczos
# run (crossover measured near n = 65 on a 2-CPU Xeon, one BLAS thread).
DENSE_MAX_N = 64


def minimum_transfer_time(n: int, j0: float = 1.0) -> float:
    """Transfer time pi / (j0 sqrt(2 n)) of the named optimal constant protocols."""
    require_positive_j0(j0)
    return np.pi / (j0 * np.sqrt(2.0 * n))


def evolve_constant(h, t: float) -> np.ndarray:
    """exp(-i h t) of a SectorMatrix, or of an array that passes its checks."""
    if not isinstance(h, SectorMatrix):
        h = SectorMatrix(basis_tag="array", entries=h)
    return segment_propagators(h.entries, t)


def evolve_source(h: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """exp(-i h t)|phi_1> for a Hermitian array h, and the Krylov dimension used.

    A real-symmetric h larger than ``DENSE_MAX_N`` goes through the Lanczos
    kernel; every other input, and every Lanczos run whose error estimate
    misses ``KRYLOV_TOL`` at ``KRYLOV_MAX_DIM``, takes the exact dense-eigh
    column, for which the reported dimension is 0.
    """
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
    still fails at ``KRYLOV_MAX_DIM``.
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
        w = h @ v
        a = v @ w
        w -= a * v
        if j:
            w -= beta_prev * basis[j - 1]
        w -= basis[:m].T @ (basis[:m] @ w)
        b = math.sqrt(w @ w)
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


@dataclass(frozen=True)
class ControlSchedule:
    """Ordered piecewise-constant control: (duration, SectorMatrix) segments."""

    segments: tuple[tuple[float, SectorMatrix], ...]

    def __post_init__(self):
        if not self.segments:
            raise GridMismatchError("schedule needs at least one segment")
        segs = tuple((float(dt), h) for dt, h in self.segments)
        tag, dim = segs[0][1].basis_tag, segs[0][1].dim
        for dt, h in segs:
            if dt <= 0:
                raise GridMismatchError(f"segment durations must be positive, got {dt}")
            if h.basis_tag != tag or h.dim != dim:
                raise BasisError("all segments must share basis_tag and dimension")
        object.__setattr__(self, "segments", segs)

    @property
    def total_time(self) -> float:
        return sum(dt for dt, _ in self.segments)

    @property
    def basis_tag(self) -> str:
        return self.segments[0][1].basis_tag

    @property
    def dim(self) -> int:
        return self.segments[0][1].dim


def segment_propagators(mats: np.ndarray, durations) -> np.ndarray:
    """exp(-i H dt) for a (..., d, d) stack of Hermitian matrices.

    ``durations`` broadcasts against the stack's leading axes: one per
    matrix, one per segment of a (C, K, d, d) stack, or a scalar.  Each
    propagator is (v e^{-i w dt}) v^H from ``eigh``; a stack without
    imaginary parts takes the real-symmetric ``eigh``, about twice as fast.
    """
    if np.abs(mats.imag).max() == 0.0:
        w, v = np.linalg.eigh(mats.real)
        v = v.astype(complex)
    else:
        w, v = np.linalg.eigh(mats)
    phases = np.exp(-1j * w * np.asarray(durations)[..., None])
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def ordered_product(us: np.ndarray) -> np.ndarray:
    """Time-ordered product U_K ... U_2 U_1 over axis -3 of a (..., K, d, d) stack.

    Pairwise tree reduction keeps the Python-level loop O(log K) for the
    fine grids used by interaction-picture and residual checks, and
    multiplies every leading index (e.g. each candidate pulse) at once.
    """
    while us.shape[-3] > 1:
        k = us.shape[-3]
        merged = us[..., 1:k:2, :, :] @ us[..., 0:k - 1:2, :, :]  # later segment on the left
        if k % 2:
            merged = np.concatenate([merged, us[..., k - 1:, :, :]], axis=-3)
        us = merged
    return us[..., 0, :, :]


def evolve_schedule(schedule: ControlSchedule) -> np.ndarray:
    """Propagator of a piecewise-constant schedule (right-to-left product)."""
    mats = np.stack([h.entries for _, h in schedule.segments])
    durations = np.array([dt for dt, _ in schedule.segments])
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


def _apply_sigma_x(psi: np.ndarray, qubit: int) -> np.ndarray:
    mask = 1 << (qubit - 1)
    return psi[np.arange(psi.size) ^ mask]


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
    N-dependent relative phase rather than on the transfer quality).  For a
    perfect transfer the result has modulus exactly 2.
    """
    if model.n > LR_MAX_QUBITS:
        raise SizeLimitError(
            f"commutator check limited to n <= {LR_MAX_QUBITS}, got n={model.n}")
    h = project_full_space(model)
    u = evolve_constant(h, t)
    dim = u.shape[0]
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0

    vac_amp = u[0, 0]
    src = 1 << 0
    tgt = 1 << (model.n - 1)
    transfer_amp = u[tgt, src]

    # phase gate diag(1, e^{i theta}) on qubit N plus a global phase: makes
    # the vacuum amplitude real-positive and the transfer amplitude's phase
    # match it, as the transfer protocol prescribes.
    chi = -np.angle(vac_amp) if abs(vac_amp) > 0 else 0.0
    theta = (np.angle(vac_amp) - np.angle(transfer_amp)) if abs(transfer_amp) > 0 else 0.0
    idx = np.arange(dim)
    gate = np.exp(1j * chi) * np.where((idx & tgt) == 0, 1.0, np.exp(1j * theta))
    u = gate[:, None] * u

    upsi0 = u @ psi0
    term1 = np.vdot(upsi0, _apply_sigma_y(u @ _apply_sigma_x(psi0, 1), model.n))
    term2 = np.vdot(u @ _apply_sigma_x(psi0, 1), _apply_sigma_y(upsi0, model.n))
    return complex(term1 - term2)
