"""Reduction of permutation-symmetric models to the 3-level transfer problem.

For a model whose couplings and fields are invariant under permutations of
the intermediate qubits 2..N-1, the single-excitation dynamics started from
the source state never leaves the span of

    |phi_1> = |1>,   |phi_2> = W-state over intermediates,   |phi_3> = |N>.

This module builds the 3x3 Hamiltonian on that basis, transforms schedules
to the interaction picture of the diagonal, checks the collective-coupling
bounds, and recognizes the end-of-transfer unitary pattern

    [[0, 0, e^{i phi}], [cos T e^{-i a}, -sin T e^{-i b}, 0],
     [sin T e^{i b}, cos T e^{i a}, 0]].
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidSizeError, SymmetryError, UnitarityError
from .reports import ConstraintReport, Violation
from .spin_model import (EFFECTIVE3, SectorMatrix, SpinModel, project_single_excitation,
                         require_transfer_size)

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
        for name in ("j1a", "jan", "j1n", "d1", "da", "dn", "frame_shift"):
            if not cmath.isfinite(getattr(self, name)):
                raise InvalidSizeError(f"{name} must be finite, got {getattr(self, name)}")

    def matrix(self) -> np.ndarray:
        return effective_matrices(self.j1a, self.jan, self.j1n, self.d1, self.da, self.dn)

    def sector_matrix(self) -> SectorMatrix:
        return SectorMatrix(basis_tag=EFFECTIVE3, entries=self.matrix(),
                            vacuum_phase_rate=0.0)

    def to_json_dict(self) -> dict:
        return {
            "j1a": [self.j1a.real, self.j1a.imag],
            "jan": [self.jan.real, self.jan.imag],
            "j1n": [self.j1n.real, self.j1n.imag],
            "d1": self.d1, "da": self.da, "dn": self.dn,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Effective3":
        return cls(
            j1a=complex(*doc["j1a"]), jan=complex(*doc["jan"]), j1n=complex(*doc["j1n"]),
            d1=float(doc["d1"]), da=float(doc["da"]), dn=float(doc["dn"]),
        )


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


def _uniform_value(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   what: str, tol: float):
    """matrix[rows[0], cols[0]] if every matrix[rows, cols] is within tol of it,
    else a SymmetryError naming the first (0-based rows, cols) pair that is not."""
    values = matrix[rows, cols]
    bad = np.flatnonzero(np.abs(values - values[:1]) > tol)
    if bad.size:
        first, k = (int(rows[0]) + 1, int(cols[0]) + 1), bad[0]
        raise SymmetryError(f"{what} not uniform: {first} -> {values[0]}, "
                            f"{(int(rows[k]) + 1, int(cols[k]) + 1)} -> {values[k]}")
    return values[0] if values.size else 0.0 + 0.0j


def reduce_to_effective(model: SpinModel, tol: float = SYMMETRY_TOL) -> Effective3:
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
    j = {name: _uniform_value(model.couplings, *sites, f"{name} coupling", tol)
         for name, sites in blocks.items()}
    if abs(j["intermediate-intermediate"].imag) > tol:
        # swapping two intermediates conjugates an oriented flip-flop term,
        # so only real couplings among them are permutation symmetric
        raise SymmetryError(f"intermediate-intermediate coupling must be real, "
                            f"got {j['intermediate-intermediate']}")
    _uniform_value(np.diag(model.fields), mids, mids, "intermediate field", tol)
    for name, sites in blocks.items():
        _uniform_value(model.zz, *sites, f"{name} ZZ", tol)

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


def to_interaction_picture(segments, slices_per_segment: int = 1):
    """Interaction picture of the diagonal part of a piecewise schedule.

    Input and output are sequences of (duration, Effective3).  Each output
    segment has zero diagonals; the couplings carry the accumulated phase
    differences exp(i (Theta_row - Theta_col)) with Theta_r(t) = int d_r dt,
    evaluated at slice midpoints.  Coupling magnitudes are unchanged.

    With K slices per segment the schedule propagator matches the exact
    interaction-picture propagator to O((dt/K)^2); segments whose diagonal
    differences vanish are reproduced exactly for any K.
    """
    if slices_per_segment < 1:
        raise InvalidSizeError("slices_per_segment must be >= 1")
    out = []
    theta = np.zeros(3)
    for dt, h in segments:
        dvec = np.array([h.d1, h.da, h.dn])
        sub = float(dt) / slices_per_segment
        for s in range(slices_per_segment):
            mid = theta + dvec * sub * (s + 0.5)
            p1, pa, pn = np.exp(1j * mid)
            out.append((sub, Effective3(
                j1a=h.j1a * p1 * np.conj(pa),
                jan=h.jan * pa * np.conj(pn),
                j1n=h.j1n * p1 * np.conj(pn),
                d1=0.0, da=0.0, dn=0.0,
                frame_shift=h.frame_shift,
            )))
        theta = theta + dvec * dt
    return out


def accumulated_diagonal_phase(segments) -> np.ndarray:
    """Theta(T) = int diag dt over a schedule; exp(-i Theta) is the frame."""
    theta = np.zeros(3)
    for dt, h in segments:
        theta = theta + np.array([h.d1, h.da, h.dn]) * dt
    return theta


def check_effective_bounds(h: Effective3, n: int, j0: float) -> ConstraintReport:
    """Check |j1a|, |jan| <= sqrt(n-2) j0 and |j1n| <= j0 (diagonals free)."""
    checks = zip(("j1a", "jan", "j1n"), (abs(h.j1a), abs(h.jan), abs(h.j1n)),
                 coupling_bounds(n, j0))
    violations = []
    max_ratio = 0.0
    for label, mag, bound in checks:
        max_ratio = max(max_ratio, mag / bound)
        if mag > bound * (1.0 + 1e-15):
            violations.append(Violation(label=label, value=mag, bound=bound))
    return ConstraintReport(violations=tuple(violations), max_ratio=max_ratio)


@dataclass(frozen=True)
class TransferDecomposition:
    """Angles of the end-of-transfer unitary pattern; valid iff it matched."""

    theta: float
    alpha: float
    beta: float
    phi: float
    valid: bool


def boundary_form_check(u: np.ndarray, tol: float = BOUNDARY_TOL) -> TransferDecomposition:
    """Test a 3x3 unitary against the transfer boundary pattern.

    ``valid`` is true iff |u11|, |u12|, |u23|, |u33| are all <= tol; given
    unitarity, the moduli of the remaining entries then automatically fit
    the pattern, so the flag depends only on the zero structure.  Angles
    are extracted on the branch theta in [0, pi/2], phases in (-pi, pi];
    phases that are undefined at theta = 0 or pi/2 are reported as 0.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise UnitarityError(f"expected a 3x3 unitary, got shape {u.shape}")
    dev = float(np.abs(u.conj().T @ u - np.eye(3)).max())
    if dev > UNITARITY_TOL:
        raise UnitarityError(f"input not unitary: deviation {dev:.3e}")

    valid = max(abs(u[0, 0]), abs(u[0, 1]), abs(u[1, 2]), abs(u[2, 2])) <= tol
    theta = float(np.arctan2(abs(u[2, 0]), abs(u[1, 0])))
    phi = float(np.angle(u[0, 2])) if abs(u[0, 2]) > tol else 0.0
    beta = float(np.angle(u[2, 0])) if abs(u[2, 0]) > tol else 0.0
    alpha = float(-np.angle(u[1, 0])) if abs(u[1, 0]) > tol else 0.0
    return TransferDecomposition(theta=theta, alpha=alpha, beta=beta, phi=phi,
                                 valid=bool(valid))


def transfer_form_unitary(theta: float, alpha: float, beta: float, phi: float) -> np.ndarray:
    """The boundary pattern evaluated at given angles (test fixture helper)."""
    ct, st = np.cos(theta), np.sin(theta)
    return np.array([
        [0.0, 0.0, np.exp(1j * phi)],
        [ct * np.exp(-1j * alpha), -st * np.exp(-1j * beta), 0.0],
        [st * np.exp(1j * beta), ct * np.exp(1j * alpha), 0.0],
    ], dtype=complex)
