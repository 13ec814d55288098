"""Fully-connected spin Hamiltonians and their excitation-sector matrices.

The model class of Hamiltonians is

    H = sum_{i<j} ( J_ij s+_i s-_j + h.c. + U_ij sz_i sz_j ) + sum_j B_j sz_j

with one flip-flop amplitude J_ij and one ZZ coefficient U_ij per unordered
qubit pair, and a longitudinal field B_j per qubit.  H conserves the total
excitation number, so it is block diagonal over excitation sectors; this
module builds the N-dimensional single-excitation block (the workhorse for
state transfer) and, for small N, the full 2^N matrix used as an oracle.

Conventions
-----------
* Qubits are labeled 1..N.  Qubit 1 is the transfer source, qubit N the
  target.
* Pauli matrices are the standard computational-basis ones: sz|0> = +|0>,
  sz|1> = -|1>, and s+ = |1><0| creates an excitation.  With this sign the
  two named optimal Hamiltonians below reduce exactly to the displayed
  3-level form (corner diagonals 0, middle diagonal -3 J0).
* In the full 2^N space, qubit q maps to bit (q-1) of the basis index, so
  the single-excitation state |q> sits at index 2^(q-1).
* Pairs are ordered row major, (1, 2), (1, 3), ..., (N-1, N); sums over
  pairs add in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BasisError,
    HermiticityError,
    InvalidSizeError,
    SizeLimitError,
)
from .reports import ConstraintReport, Violation

SINGLE_EXCITATION = "single_excitation"
FULL_SPACE = "full_space"
EFFECTIVE3 = "effective3"

HERMITICITY_TOL = 1e-12
FULL_SPACE_MAX_QUBITS = 12


def require_positive_j0(j0: float) -> None:
    """Raise InvalidSizeError unless the coupling bound j0 is finite and positive."""
    if not (math.isfinite(j0) and j0 > 0):
        raise InvalidSizeError(f"j0 must be finite and positive, got {j0}")


def require_transfer_size(n: int, j0: float) -> None:
    """Raise InvalidSizeError unless n >= 3 (an intermediate qubit) and j0 is valid."""
    if n < 3:
        raise InvalidSizeError(
            f"transfer construction needs n >= 3 (an intermediate qubit), got n={n}")
    require_positive_j0(j0)


def _read_only(x, dtype) -> np.ndarray:
    """x itself if it is a read-only dtype array owning its memory, else a read-only copy."""
    m = np.asarray(x, dtype=dtype)
    if m.flags.writeable or not m.flags.owndata:
        m = m.copy()
        m.flags.writeable = False
    return m


def _exactly_hermitian(m: np.ndarray) -> bool:
    """m equals its conjugate transpose, compared in row blocks to keep temporaries small."""
    return all(np.array_equal(m[k:k + 64], m[:, k:k + 64].T.conj()) for k in range(0, len(m), 64))


def _pair_matrix(n: int, raw, dtype, what: str) -> np.ndarray:
    """Read-only (n, n) matrix of a {(i, j): value} dict or an (n, n) array.

    A dict key (i, j) sets entry [i-1, j-1] to the value and [j-1, i-1] to
    its conjugate (a real ``dtype`` keeps the real part).  Out-of-range,
    diagonal, repeated and non-finite entries raise, and so does an array
    that is not (n, n), zero on the diagonal and exactly Hermitian.
    """
    if raw is None or isinstance(raw, dict):
        m = np.zeros((n, n), dtype=dtype)
        for (i, j), val in (raw or {}).items():
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise InvalidSizeError(f"pair ({i},{j}) invalid for n={n}")
            if (j, i) in raw:
                raise InvalidSizeError(f"pair {(min(i, j), max(i, j))} given twice")
            v = complex(val) if dtype is complex else complex(val).real
            m[i - 1, j - 1], m[j - 1, i - 1] = v, v.conjugate()
        m.flags.writeable = False
    else:
        m = _read_only(raw, dtype)
        if m.shape != (n, n):
            raise InvalidSizeError(f"{what} must have shape ({n}, {n}), got {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidSizeError(f"{what} must be finite")
    if np.diagonal(m).any() or not _exactly_hermitian(m):
        raise InvalidSizeError(f"{what} must have a zero diagonal and be Hermitian")
    return m


def _upper_pairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based rows, columns and values of the nonzero entries above the diagonal, row major."""
    rows, cols = np.nonzero(m)
    rows, cols = rows[rows < cols], cols[rows < cols]
    return rows, cols, m[rows, cols]


@dataclass(frozen=True, eq=False)
class SpinModel:
    """One time slice of the model Hamiltonian.

    ``couplings`` is the read-only (n, n) complex Hermitian matrix with a
    zero diagonal whose entry [i-1, j-1] is J_ij, the matrix element
    <i|H|j> between single-excitation states; ``zz`` is the read-only
    (n, n) real symmetric matrix of U_ij; ``fields`` holds B_1..B_N.  Both
    matrices may be given as arrays or as {(i, j): value} pair dicts; a
    read-only array that owns its memory is kept, any other is copied.
    Instances are immutable and safe to share between workers.
    """

    n: int
    couplings: np.ndarray = None
    zz: np.ndarray = None
    fields: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise InvalidSizeError(f"need at least 2 qubits, got n={self.n}")
        object.__setattr__(self, "couplings",
                           _pair_matrix(self.n, self.couplings, complex, "couplings"))
        object.__setattr__(self, "zz", _pair_matrix(self.n, self.zz, float, "zz"))
        f = tuple(float(x) for x in (self.fields or (0.0,) * self.n))
        if len(f) != self.n:
            raise InvalidSizeError(f"fields must have length n={self.n}, got {len(f)}")
        if not all(map(math.isfinite, f)):
            raise InvalidSizeError("fields must be finite")
        object.__setattr__(self, "fields", f)

    def to_json_dict(self) -> dict:
        def pairs(m):
            return zip(*(a.tolist() for a in _upper_pairs(m)))
        return {
            "n": self.n,
            "couplings": [[i + 1, j + 1, v.real, v.imag] for i, j, v in pairs(self.couplings)],
            "zz": [[i + 1, j + 1, u] for i, j, u in pairs(self.zz)],
            "fields": list(self.fields),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpinModel":
        return cls(
            n=int(doc["n"]),
            couplings={(int(i), int(j)): complex(re, im) for i, j, re, im in doc.get("couplings", [])},
            zz={(int(i), int(j)): float(u) for i, j, u in doc.get("zz", [])},
            fields=tuple(doc.get("fields", [])),
        )


@dataclass(frozen=True)
class SectorMatrix:
    """A Hermitian matrix in a fixed excitation-sector basis.

    ``vacuum_phase_rate`` is the energy of the all-|0> state, tracked as a
    scalar because the vacuum is a decoupled one-dimensional sector.
    """

    basis_tag: str
    entries: np.ndarray
    vacuum_phase_rate: float = 0.0

    def __post_init__(self):
        m = _read_only(self.entries, complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BasisError(f"entries must be square, got shape {m.shape}")
        if not (np.isfinite(m).all() and math.isfinite(self.vacuum_phase_rate)):
            raise InvalidSizeError("sector entries and vacuum phase rate must be finite")
        if not _exactly_hermitian(m):
            scale = max(1.0, float(np.abs(m).max()))
            herm = float(np.abs(m - m.conj().T).max())
            if herm > HERMITICITY_TOL * scale:
                raise HermiticityError(f"matrix not Hermitian: max deviation {herm:.3e}")
        if self.basis_tag == EFFECTIVE3 and m.shape[0] != 3:
            raise BasisError(f"effective3 sector must be 3x3, got {m.shape[0]}")
        if self.basis_tag == FULL_SPACE and m.shape[0] & (m.shape[0] - 1):
            raise BasisError(f"full-space dimension must be a power of 2, got {m.shape[0]}")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "vacuum_phase_rate", float(self.vacuum_phase_rate))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def build_h_opt(n: int, j0: float) -> SpinModel:
    """Optimal uniform all-to-all Hamiltonian with strong edge fields.

    All pairs carry J_ij = j0 and the source/target qubits see a field
    B = -(n/2) j0.  Transfers |1> -> |N> perfectly at T = pi/(j0 sqrt(2n)).
    """
    require_transfer_size(n, j0)
    couplings = np.full((n, n), complex(j0))
    np.fill_diagonal(couplings, 0.0)
    couplings.flags.writeable = False
    fields = [0.0] * n
    fields[0] = fields[n - 1] = -(n / 2.0) * j0
    return SpinModel(n=n, couplings=couplings, fields=tuple(fields))


def build_h_opt_prime(n: int, j0: float) -> SpinModel:
    """Equally optimal variant with constant edge fields.

    Keeps the source-target coupling and the star couplings from qubits 1
    and N to every intermediate, removes the couplings among intermediates,
    and applies B = -(3/2) j0 on qubits 1 and N only.  Reduces to the same
    effective 3-level matrix as ``build_h_opt``.
    """
    require_transfer_size(n, j0)
    couplings = np.zeros((n, n), dtype=complex)
    couplings[[0, n - 1], :] = couplings[:, [0, n - 1]] = complex(j0)
    couplings[[0, n - 1], [0, n - 1]] = 0.0
    couplings.flags.writeable = False
    fields = [0.0] * n
    fields[0] = fields[n - 1] = -1.5 * j0
    return SpinModel(n=n, couplings=couplings, fields=tuple(fields))


HAMILTONIANS = {"opt": build_h_opt, "opt_prime": build_h_opt_prime}


def hamiltonian_builder(name: str):
    """Builder registered under ``name``; "-" and "_" spell the same name."""
    builder = HAMILTONIANS.get(str(name).replace("-", "_"))
    if builder is None:
        raise InvalidSizeError(
            f"hamiltonian must be one of {sorted(HAMILTONIANS)}, got {name!r}")
    return builder


def project_single_excitation(model: SpinModel) -> SectorMatrix:
    """N x N matrix of the Hamiltonian over states |i> = "only qubit i is |1>".

    Off-diagonal (i, j) is J_ij.  Diagonals follow from Pauli algebra with
    sz = diag(+1, -1) on (|0>, |1>):

        E_vac   = sum_j B_j + sum_{i<j} U_ij
        E_i     = E_vac - 2 B_i - 2 sum_{j != i} U_ij

    Both ZZ sums add one pair at a time in row-major pair order (cumsum and
    bincount accumulate sequentially).
    """
    n = model.n
    rows, cols, u = _upper_pairs(model.zz)
    vac = float(sum(model.fields)) + (float(np.cumsum(u)[-1]) if u.size else 0.0)
    diag = np.full(n, vac)
    diag -= 2.0 * np.array(model.fields)
    diag -= 2.0 * np.bincount(np.column_stack((rows, cols)).ravel(),
                              weights=np.repeat(u, 2), minlength=n)
    h = model.couplings.copy()
    h[np.diag_indices(n)] = diag
    h.flags.writeable = False
    return SectorMatrix(basis_tag=SINGLE_EXCITATION, entries=h, vacuum_phase_rate=vac)


def project_full_space(model: SpinModel) -> SectorMatrix:
    """Dense 2^N x 2^N matrix of the Hamiltonian (oracle for small N)."""
    n = model.n
    if n > FULL_SPACE_MAX_QUBITS:
        raise SizeLimitError(
            f"full-space build limited to n <= {FULL_SPACE_MAX_QUBITS}, got n={n}")
    dim = 1 << n
    idx = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)

    # z_q(s) = +1 when bit q of s is 0, else -1 (q counts qubits from 0 here)
    def zsign(q: int) -> np.ndarray:
        return 1.0 - 2.0 * ((idx >> q) & 1)

    diag = np.zeros(dim)
    for q in range(n):
        diag += model.fields[q] * zsign(q)
    for i, j, u in zip(*_upper_pairs(model.zz)):
        diag += u * zsign(i) * zsign(j)
    h[idx, idx] = diag

    for i, j, v in zip(*_upper_pairs(model.couplings)):
        bi, bj = 1 << i, 1 << j
        # J_ij s+_i s-_j maps states with qubit j excited, i not, onto i excited
        src = idx[((idx & bj) != 0) & ((idx & bi) == 0)]
        dst = src ^ bi ^ bj
        h[dst, src] += v
        h[src, dst] += np.conj(v)
    return SectorMatrix(basis_tag=FULL_SPACE, entries=h, vacuum_phase_rate=float(diag[0]))


def check_coupling_bounds(model: SpinModel, j0: float) -> ConstraintReport:
    """Report every pair with |J_ij| > j0 and the largest ratio |J_ij|/j0."""
    require_positive_j0(j0)
    rows, cols = np.triu_indices(model.n, 1)
    mags = np.abs(model.couplings[rows, cols])
    bad = np.flatnonzero(mags > j0 * (1.0 + 1e-15))
    violations = tuple(Violation(label=f"J_{rows[k] + 1},{cols[k] + 1}",
                                 value=float(mags[k]), bound=j0) for k in bad)
    return ConstraintReport(violations=violations, max_ratio=float((mags / j0).max()))
