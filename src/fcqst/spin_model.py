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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

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

Pair = tuple[int, int]


def _canonical_pairs(n: int, raw: Mapping[Pair, complex] | None,
                     conjugate_on_swap: bool) -> dict[Pair, complex]:
    """Normalize pair keys to i < j; a swapped flip-flop key conjugates."""
    out: dict[Pair, complex] = {}
    for (i, j), val in (raw or {}).items():
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise InvalidSizeError(f"pair ({i},{j}) invalid for n={n}")
        key, v = ((i, j), val) if i < j else ((j, i), np.conj(val) if conjugate_on_swap else val)
        if key in out:
            raise InvalidSizeError(f"pair {key} given twice")
        out[key] = complex(v)
    return out


@dataclass(frozen=True)
class SpinModel:
    """One time slice of the model Hamiltonian.

    ``couplings`` maps unordered pairs (i, j), i < j, to the flip-flop
    amplitude J_ij (the matrix element <i|H|j> between single-excitation
    states); ``zz`` maps pairs to real U_ij; ``fields`` holds B_1..B_N.
    Instances are immutable and safe to share between workers.
    """

    n: int
    couplings: dict[Pair, complex] = field(default_factory=dict)
    zz: dict[Pair, float] = field(default_factory=dict)
    fields: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise InvalidSizeError(f"need at least 2 qubits, got n={self.n}")
        object.__setattr__(self, "couplings",
                           _canonical_pairs(self.n, self.couplings, conjugate_on_swap=True))
        zz = _canonical_pairs(self.n, self.zz, conjugate_on_swap=False)
        object.__setattr__(self, "zz", {k: float(v.real) for k, v in zz.items()})
        f = tuple(float(x) for x in (self.fields or (0.0,) * self.n))
        if len(f) != self.n:
            raise InvalidSizeError(f"fields must have length n={self.n}, got {len(f)}")
        object.__setattr__(self, "fields", f)

    def coupling(self, i: int, j: int) -> complex:
        """<i|H|j> for single-excitation states (0 if the pair is absent)."""
        if i < j:
            return self.couplings.get((i, j), 0.0 + 0.0j)
        return np.conj(self.couplings.get((j, i), 0.0 + 0.0j))

    def zz_coeff(self, i: int, j: int) -> float:
        return self.zz.get((min(i, j), max(i, j)), 0.0)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "couplings": [[i, j, v.real, v.imag] for (i, j), v in sorted(self.couplings.items())],
            "zz": [[i, j, u] for (i, j), u in sorted(self.zz.items())],
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
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BasisError(f"entries must be square, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
        herm = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
        if herm > HERMITICITY_TOL * scale:
            raise HermiticityError(f"matrix not Hermitian: max deviation {herm:.3e}")
        if self.basis_tag == EFFECTIVE3 and m.shape[0] != 3:
            raise BasisError(f"effective3 sector must be 3x3, got {m.shape[0]}")
        if self.basis_tag == FULL_SPACE and m.shape[0] & (m.shape[0] - 1):
            raise BasisError(f"full-space dimension must be a power of 2, got {m.shape[0]}")
        m.flags.writeable = False
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
    _require_transfer_size(n, j0)
    couplings = {(i, j): complex(j0) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
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
    _require_transfer_size(n, j0)
    couplings: dict[Pair, complex] = {(1, n): complex(j0)}
    for k in range(2, n):
        couplings[(1, k)] = complex(j0)
        couplings[(k, n)] = complex(j0)
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


def _require_transfer_size(n: int, j0: float) -> None:
    if n < 3:
        raise InvalidSizeError(
            f"transfer construction needs n >= 3 (an intermediate qubit), got n={n}")
    if not j0 > 0:
        raise InvalidSizeError(f"j0 must be positive, got {j0}")


def _pair_sites(pairs: Mapping[Pair, object]) -> np.ndarray:
    """0-based sites i0, j0, i1, j1, ... of the pair keys, in dictionary order."""
    sites = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.intp,
                        count=2 * len(pairs))
    sites -= 1
    return sites


def _scatter_couplings(h: np.ndarray, couplings: Mapping[Pair, complex]) -> None:
    """h[i-1, j-1] = J_ij and h[j-1, i-1] = conj(J_ij) for every pair."""
    sites = _pair_sites(couplings)
    rows, cols = sites[0::2], sites[1::2]
    vals = np.fromiter(couplings.values(), dtype=complex, count=len(couplings))
    h[rows, cols] = vals
    h[cols, rows] = vals.conj()


def project_single_excitation(model: SpinModel) -> SectorMatrix:
    """N x N matrix of the Hamiltonian over states |i> = "only qubit i is |1>".

    Off-diagonal (i, j) is J_ij.  Diagonals follow from Pauli algebra with
    sz = diag(+1, -1) on (|0>, |1>):

        E_vac   = sum_j B_j + sum_{i<j} U_ij
        E_i     = E_vac - 2 B_i - 2 sum_{j != i} U_ij
    """
    n = model.n
    h = np.zeros((n, n), dtype=complex)
    _scatter_couplings(h, model.couplings)
    vac = float(sum(model.fields)) + float(sum(model.zz.values()))
    # per-site ZZ sums accumulate in pair order (bincount adds sequentially)
    zz_sites = _pair_sites(model.zz)
    zz_vals = np.repeat(np.fromiter(model.zz.values(), dtype=float, count=len(model.zz)), 2)
    zz_sum = np.bincount(zz_sites, weights=zz_vals, minlength=n)
    diag = np.full(n, vac)
    diag -= 2.0 * np.array(model.fields)
    diag -= 2.0 * zz_sum
    h += np.diag(diag)
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

    # z_q(s) = +1 when bit (q-1) of s is 0, else -1
    def zsign(q: int) -> np.ndarray:
        return 1.0 - 2.0 * ((idx >> (q - 1)) & 1)

    diag = np.zeros(dim)
    for q in range(1, n + 1):
        diag += model.fields[q - 1] * zsign(q)
    for (i, j), u in model.zz.items():
        diag += u * zsign(i) * zsign(j)
    h[idx, idx] = diag

    for (i, j), v in model.couplings.items():
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        # J_ij s+_i s-_j maps states with qubit j excited, i not, onto i excited
        src = idx[((idx & bj) != 0) & ((idx & bi) == 0)]
        dst = src ^ bi ^ bj
        h[dst, src] += v
        h[src, dst] += np.conj(v)
    return SectorMatrix(basis_tag=FULL_SPACE, entries=h, vacuum_phase_rate=float(diag[0]))


def check_coupling_bounds(model: SpinModel, j0: float) -> ConstraintReport:
    """Report every pair with |J_ij| > j0 and the largest ratio |J_ij|/j0."""
    violations = []
    max_ratio = 0.0
    for (i, j), v in sorted(model.couplings.items()):
        mag = abs(v)
        max_ratio = max(max_ratio, mag / j0)
        if mag > j0 * (1.0 + 1e-15):
            violations.append(Violation(label=f"J_{i},{j}", value=mag, bound=j0))
    return ConstraintReport(violations=tuple(violations), max_ratio=max_ratio)
