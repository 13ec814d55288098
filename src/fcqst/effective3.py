"""Reduction of permutation-symmetric models to the 3-level transfer problem.

For a model whose couplings and fields are invariant under permutations of
the intermediate qubits 2..N-1, the single-excitation dynamics started from
the source state never leaves the span of

    |phi_1> = |1>,   |phi_2> = W-state over intermediates,   |phi_3> = |N>.

This module builds the 3x3 Hamiltonian on that basis, states the
collective-coupling bounds, and recognizes the end-of-transfer unitary
pattern

    [[0, 0, e^{i phi}], [cos T e^{-i a}, -sin T e^{-i b}, 0],
     [sin T e^{i b}, cos T e^{i a}, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidSizeError, SymmetryError, UnitarityError
from .spin_model import (EFFECTIVE3, SectorMatrix, SpinModel, project_single_excitation,
                         require_finite, require_transfer_size)

SYMMETRY_TOL = 1e-12
BOUNDARY_TOL = 1e-9
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Effective3:
    """3-level Hamiltonian over {|phi_1>, |phi_2>, |phi_3>}.

    ``frame_shift`` records the uniform diagonal shift that was subtracted
    when the instance was produced by ``reduce_to_effective`` (the true
    sector block is matrix() + frame_shift * I); it only contributes a
    global phase to the dynamics.
    """

    j1a: complex
    jan: complex
    j1n: complex
    d1: float = 0.0
    da: float = 0.0
    dn: float = 0.0
    frame_shift: float = 0.0

    def __post_init__(self):
        require_finite(**vars(self))

    def matrix(self) -> np.ndarray:
        return effective_matrices(self.j1a, self.jan, self.j1n, self.d1, self.da, self.dn)

    def sector_matrix(self) -> SectorMatrix:
        return SectorMatrix(basis_tag=EFFECTIVE3, entries=self.matrix(),
                            vacuum_phase_rate=0.0)


def effective_matrices(j1a, jan, j1n, d1, da, dn) -> np.ndarray:
    """(..., 3, 3) Hamiltonians [[d1, j1a, j1n], [j1a*, da, jan], [j1n*, jan*, dn]].

    The six arguments broadcast against each other; scalars give one 3x3 matrix.
    """
    shape = np.broadcast_shapes(*map(np.shape, (j1a, jan, j1n, d1, da, dn)))
    mats = np.zeros(shape + (3, 3), dtype=complex)
    mats[..., 0, 0], mats[..., 1, 1], mats[..., 2, 2] = d1, da, dn
    mats[..., 0, 1], mats[..., 1, 0] = j1a, np.conj(j1a)
    mats[..., 1, 2], mats[..., 2, 1] = jan, np.conj(jan)
    mats[..., 0, 2], mats[..., 2, 0] = j1n, np.conj(j1n)
    return mats


def coupling_bounds(n: int, j0: float) -> tuple[float, float, float]:
    """Amplitude bounds on (|j1a|, |jan|, |j1n|): sqrt(n-2) j0, sqrt(n-2) j0, j0."""
    require_transfer_size(n, j0)
    collective = float(np.sqrt(n - 2) * j0)
    return collective, collective, float(j0)


def _uniform_value(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray, what: str):
    """matrix[rows[0], cols[0]] if every matrix[rows, cols] is within SYMMETRY_TOL of it,
    else a SymmetryError naming the first (0-based rows, cols) pair that is not."""
    values = matrix[rows, cols]
    bad = np.flatnonzero(np.abs(values - values[:1]) > SYMMETRY_TOL)
    if bad.size:
        first, k = (int(rows[0]) + 1, int(cols[0]) + 1), bad[0]
        raise SymmetryError(f"{what} not uniform: {first} -> {values[0]}, "
                            f"{(int(rows[k]) + 1, int(cols[k]) + 1)} -> {values[k]}")
    return values[0] if values.size else 0.0 + 0.0j


def reduce_to_effective(model: SpinModel) -> Effective3:
    """Project a permutation-symmetric model onto the 3-level basis.

    Collective couplings pick up the sqrt(N-2) W-state enhancement; the
    diagonals are the energies of |phi_1>, |phi_2>, |phi_3> under the
    single-excitation matrix, shifted so the |phi_3> entry is zero (the
    shift is recorded in ``frame_shift``).
    """
    n = model.n
    if n < 3:
        raise InvalidSizeError(f"reduction needs n >= 3, got n={n}")
    m = n - 2
    mids = np.arange(1, n - 1)                 # 0-based intermediate sites
    blocks = {"source-intermediate": (np.zeros(m, dtype=int), mids),
              "intermediate-target": (mids, np.full(m, n - 1)),
              "intermediate-intermediate": tuple(k + 1 for k in np.triu_indices(m, 1))}
    j = {name: _uniform_value(model.couplings, *sites, f"{name} coupling")
         for name, sites in blocks.items()}
    if abs(j["intermediate-intermediate"].imag) > SYMMETRY_TOL:
        # swapping two intermediates conjugates an oriented flip-flop term,
        # so only real couplings among them are permutation symmetric
        raise SymmetryError(f"intermediate-intermediate coupling must be real, "
                            f"got {j['intermediate-intermediate']}")
    _uniform_value(np.diag(model.fields), mids, mids, "intermediate field")
    for name, sites in blocks.items():
        _uniform_value(model.zz, *sites, f"{name} ZZ")

    h = project_single_excitation(model).entries
    w = np.zeros(n)
    w[1:n - 1] = 1.0 / np.sqrt(m)
    d1 = float(h[0, 0].real)
    da = float((w @ h @ w).real)
    dn = float(h[n - 1, n - 1].real)
    return Effective3(
        j1a=np.sqrt(m) * j["source-intermediate"],
        jan=np.sqrt(m) * j["intermediate-target"],
        j1n=complex(model.couplings[0, n - 1]),
        d1=d1 - dn, da=da - dn, dn=0.0,
        frame_shift=dn,
    )


@dataclass(frozen=True)
class TransferDecomposition:
    """Angles of the end-of-transfer unitary pattern; valid iff it matched."""

    theta: float
    alpha: float
    beta: float
    phi: float
    valid: bool


def boundary_form_check(u: np.ndarray) -> TransferDecomposition:
    """Test a 3x3 unitary against the transfer boundary pattern.

    ``valid`` is true iff |u11|, |u12|, |u23|, |u33| are all <= BOUNDARY_TOL; given
    unitarity, the moduli of the remaining entries then automatically fit
    the pattern, so the flag depends only on the zero structure.  Angles
    are extracted on the branch theta in [0, pi/2], phases in (-pi, pi];
    phases that are undefined at theta = 0 or pi/2 are reported as 0.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise UnitarityError(f"expected a 3x3 unitary, got shape {u.shape}")
    with np.errstate(invalid="ignore"):  # a NaN or inf entry gives a NaN or inf deviation
        dev = float(np.abs(u.conj().T @ u - np.eye(3)).max())
    if not dev <= UNITARITY_TOL:
        raise UnitarityError(f"input not unitary: deviation {dev:.3e}")

    valid = max(abs(u[0, 0]), abs(u[0, 1]), abs(u[1, 2]), abs(u[2, 2])) <= BOUNDARY_TOL
    theta = float(np.arctan2(abs(u[2, 0]), abs(u[1, 0])))
    phi = float(np.angle(u[0, 2])) if abs(u[0, 2]) > BOUNDARY_TOL else 0.0
    beta = float(np.angle(u[2, 0])) if abs(u[2, 0]) > BOUNDARY_TOL else 0.0
    alpha = float(-np.angle(u[1, 0])) if abs(u[1, 0]) > BOUNDARY_TOL else 0.0
    return TransferDecomposition(theta=theta, alpha=alpha, beta=beta, phi=phi,
                                 valid=bool(valid))
