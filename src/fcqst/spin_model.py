"""Fully-connected spin Hamiltonians and their excitation-sector matrices.

The model class of Hamiltonians is

    H = sum_{i<j} ( J_ij s+_i s-_j + h.c. + U_ij sz_i sz_j ) + sum_j B_j sz_j

with one flip-flop amplitude J_ij and one ZZ coefficient U_ij per unordered
qubit pair, and a longitudinal field B_j per qubit.  H conserves the total
excitation number, so it is block diagonal over excitation sectors; this
module builds the N-dimensional single-excitation block (the workhorse for
state transfer) and, for small N, the full 2^N matrix used as an oracle,
held as its excitation-number blocks, or any one of those blocks alone.

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

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .exceptions import (
    BasisError,
    HermiticityError,
    InvalidSizeError,
    SizeLimitError,
)
from .reports import ConstraintReport, Violation
from .workers import run_parallel, usable_workers

SINGLE_EXCITATION = "single_excitation"
FULL_SPACE = "full_space"
EFFECTIVE3 = "effective3"

HERMITICITY_TOL = 1e-12
NON_FINITE_MATRIX = "matrix entries must be finite"
FULL_SPACE_MAX_QUBITS = 12
TILE = 128  # rows and columns of the exact Hermitian check's tiles
# Above this largest block size (N >= 10) the excitation blocks of a 2^N
# matrix are built and propagated on several threads.  Two workers against
# one on a 2-CPU Xeon, one BLAS thread: N = 7 0.74-0.89x, 8 1.04-1.09x,
# 9 1.31-1.44x, 10 1.44x, 11 1.55-1.57x; calls up to N = 9 keep to the
# calling thread.
PARALLEL_MIN_BLOCK = 128
# Up to this many qubits the blocks of a 2^N matrix are taken from one build
# over all 2^N states, which beats one build per block there (sector op, one
# BLAS thread, 2-CPU Xeon: N = 3 0.52 vs 0.66 ms, 8 2.31 vs 2.59, 10 15.8 vs 14.9).
ONE_PASS_MAX_QUBITS = 8


def require_positive_j0(j0: float) -> None:
    """Raise InvalidSizeError unless the coupling bound j0 is finite and positive."""
    if not (math.isfinite(j0) and j0 > 0):
        raise InvalidSizeError(f"j0 must be finite and positive, got {j0}")


def require_finite(**values) -> None:
    """Raise InvalidSizeError naming the first real or complex value that is not finite (None passes)."""
    for name, value in values.items():
        if value is not None and not cmath.isfinite(value):
            raise InvalidSizeError(f"{name} must be finite, got {value}")


def require_integer(value, name: str) -> int:
    """``value`` as an int if it is an integer (numpy integers too), else InvalidSizeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSizeError(f"{name} must be an integer, got {value!r}") from None


def require_transfer_size(n: int, j0: float) -> None:
    """Raise InvalidSizeError unless n is an integer >= 3 (an intermediate qubit) and j0 is valid."""
    if require_integer(n, "n") < 3:
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
    """m is finite and equals its conjugate transpose, compared in 128 x 128 tiles.

    Each tile on or above the diagonal minus the conjugate transpose of its
    mirror tile must be exactly zero, so temporaries stay tile-sized and
    every read is a short contiguous row.  Two finite floats differ by zero
    only when they are equal, and an inf or NaN entry leaves a nonzero inf
    or NaN, so one pass also proves every entry finite.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, huge - -huge
        return not any((m[i:i + TILE, j:j + TILE] - m[j:j + TILE, i:i + TILE].T.conj()).any()
                       for i in range(0, len(m), TILE) for j in range(i, len(m), TILE))


def require_near_hermitian(m: np.ndarray) -> None:
    """Raise unless each matrix of a (..., d, d) stack is finite (InvalidSizeError) and within
    ``HERMITICITY_TOL`` of Hermitian, scaled by its largest entry (HermiticityError)."""
    if not np.isfinite(m).all():
        raise InvalidSizeError(NON_FINITE_MATRIX)
    herm = np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(axis=(-2, -1))
    if (herm > HERMITICITY_TOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))).any():
        raise HermiticityError(f"matrix not Hermitian: max deviation {herm.max():.3e}")


@functools.cache
def excitation_blocks(n: int) -> tuple[np.ndarray, ...]:
    """Read-only basis indices of the 2^n space with excitation number k, in ascending order, for k = 0..n."""
    idx = np.arange(1 << n)
    popcount = np.zeros(idx.size, dtype=int)
    for q in range(n):
        popcount += (idx >> q) & 1
    blocks = tuple(np.flatnonzero(popcount == k) for k in range(n + 1))
    for block in blocks:
        block.flags.writeable = False
    return blocks


@functools.cache
def excitation_flat_index(n: int) -> tuple[np.ndarray, ...]:
    """Read-only positions, in a C-ordered 2^n x 2^n matrix, of the entries of each
    excitation block of ``excitation_blocks(n)``, row major."""
    flat = tuple((i[:, None] << n | i).ravel() for i in excitation_blocks(n))
    for index in flat:
        index.flags.writeable = False
    return flat


def block_tasks(n: int) -> tuple[tuple[int, ...], int]:
    """Excitation numbers 0..n, largest block first, and the threads for one task per block:
    ``usable_workers`` once the largest block exceeds ``PARALLEL_MIN_BLOCK``, else 1."""
    order = tuple(sorted(range(n + 1), key=lambda k: -math.comb(n, k)))
    return order, usable_workers(n + 1) if math.comb(n, n // 2) > PARALLEL_MIN_BLOCK else 1


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
        if require_integer(self.n, "n") < 2:
            raise InvalidSizeError(f"need at least 2 qubits, got n={self.n}")
        object.__setattr__(self, "couplings",
                           _pair_matrix(self.n, self.couplings, complex, "couplings"))
        object.__setattr__(self, "zz", _pair_matrix(self.n, self.zz, float, "zz"))
        f = tuple(float(x) for x in (self.fields or (0.0,) * self.n))
        if len(f) != self.n:
            raise InvalidSizeError(f"fields must have length n={self.n}, got {len(f)}")
        if not all(map(math.isfinite, f)):
            raise InvalidSizeError("fields must be finite")
        # With S = sum |B_j| + sum_{i<j} |U_ij|, every diagonal energy and
        # partial sum the projections form is at most S in size, and every
        # doubled term, 2 B_i or 2 sum_j U_ij, at most 2 S; a finite 4 S
        # leaves a factor of two for rounding.
        with np.errstate(over="ignore"):
            scale = sum(map(abs, f)) + float(np.abs(self.zz).sum()) / 2
        if not math.isfinite(4.0 * scale):
            raise InvalidSizeError("fields and zz are too large: the diagonal energies overflow")
        object.__setattr__(self, "fields", f)


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    """A Hermitian matrix in a fixed excitation-sector basis.

    ``vacuum_phase_rate`` is the energy of the all-|0> state, tracked as a
    scalar because the vacuum is a decoupled one-dimensional sector.  The
    entries must pass the exact Hermitian check, or else be finite and
    within ``HERMITICITY_TOL`` of Hermitian.

    ``blocks`` is empty for a matrix held as its entries, as every one
    made by this constructor is.  ``project_full_space`` returns one held
    as its excitation blocks instead.
    """

    basis_tag: str
    entries: np.ndarray
    vacuum_phase_rate: float = 0.0
    blocks: ClassVar[tuple[np.ndarray, ...]] = ()

    def __post_init__(self):
        m = _read_only(self.entries, complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BasisError(f"entries must be square, got shape {m.shape}")
        if not math.isfinite(self.vacuum_phase_rate):
            raise InvalidSizeError("vacuum phase rate must be finite")
        if not _exactly_hermitian(m):
            require_near_hermitian(m)
        dim = m.shape[0]
        if self.basis_tag == EFFECTIVE3 and dim != 3:
            raise BasisError(f"effective3 sector must be 3x3, got {dim}")
        if self.basis_tag == FULL_SPACE and dim & (dim - 1):
            raise BasisError(f"full-space dimension must be a power of 2, got {dim}")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "vacuum_phase_rate", float(self.vacuum_phase_rate))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class _ExcitationBlockMatrix(SectorMatrix):
    """A ``FULL_SPACE`` SectorMatrix held as read-only blocks, ``blocks[k]`` on the
    states ``excitation_blocks(n)[k]``; ``entries`` is assembled from them on first read."""

    def __init__(self, blocks: tuple[np.ndarray, ...]):
        object.__setattr__(self, "basis_tag", FULL_SPACE)
        object.__setattr__(self, "vacuum_phase_rate", float(blocks[0][0, 0].real))
        object.__setattr__(self, "blocks", blocks)

    @functools.cached_property
    def entries(self) -> np.ndarray:
        n = len(self.blocks) - 1
        m = np.zeros((1 << n, 1 << n), dtype=complex)
        for block, index in zip(self.blocks, excitation_flat_index(n)):
            m.reshape(-1)[index] = block.ravel()
        m.flags.writeable = False
        return m

    @property
    def dim(self) -> int:
        return 1 << (len(self.blocks) - 1)


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


def _hamiltonian_on(model: SpinModel, states: np.ndarray) -> np.ndarray:
    """Matrix of the Hamiltonian on ascending 2^N basis states that excitation number closes.

    Entry [a, b] is <states[a]|H|states[b]>, so on all 2^N states this is
    the full matrix and on one excitation number it is that block of it,
    entry for entry.
    """
    n, dim = model.n, states.size
    bits = (states[:, None] >> np.arange(n)) & 1
    z = 1.0 - 2.0 * bits  # z_q(s) = +1 when bit q of s is 0, else -1 (q counts qubits from 0 here)
    # The field terms, then the ZZ terms in pair order, summed onto a zero
    # diagonal one at a time: a left-to-right cumsum along the row.
    zi, zj, u = _upper_pairs(model.zz)
    terms = np.hstack((np.zeros((dim, 1)), z * model.fields, u * z[:, zi] * z[:, zj]))
    h = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(h, np.cumsum(terms, axis=1)[:, -1])

    # J_ij s+_i s-_j maps states with qubit j excited, i not, onto i excited,
    # which has the same excitation number and so is in the list.  Distinct
    # pairs make distinct off-diagonal transitions, so one update per
    # triangle adds every pair's term to a zero entry exactly once.
    rows, cols, vals = _upper_pairs(model.couplings)
    src, pair = np.nonzero((bits[:, cols] == 1) & (bits[:, rows] == 0))
    dst = np.searchsorted(states, states[src] ^ (1 << rows[pair]) ^ (1 << cols[pair]))
    h[dst, src] += vals[pair]
    h[src, dst] += vals[pair].conj()
    return h


def excitation_block(model: SpinModel, k: int) -> np.ndarray:
    """Block of ``project_full_space(model)`` on the states ``excitation_blocks(model.n)[k]``, built alone."""
    return _hamiltonian_on(model, excitation_blocks(model.n)[k])


def project_full_space(model: SpinModel) -> SectorMatrix:
    """The 2^N x 2^N matrix of the Hamiltonian (oracle for small N), held as its excitation blocks.

    Each block is one task, largest first (``block_tasks``): built by
    ``excitation_block`` (or up to ``ONE_PASS_MAX_QUBITS`` taken from one
    build over all 2^N states), it passes ``SectorMatrix``'s Hermitian rule.
    The dense ``entries``, assembled only when read, are bit for bit those
    of ``_hamiltonian_on`` on all 2^N states.
    """
    n = model.n
    if n > FULL_SPACE_MAX_QUBITS:
        raise SizeLimitError(
            f"full-space build limited to n <= {FULL_SPACE_MAX_QUBITS}, got n={n}")
    order, workers = block_tasks(n)
    blocks = [None] * (n + 1)
    whole = _hamiltonian_on(model, np.arange(1 << n)).ravel() if n <= ONE_PASS_MAX_QUBITS else None

    def build(_, j):
        k = order[j]
        block = (excitation_block(model, k) if whole is None
                 else whole[excitation_flat_index(n)[k]].reshape(math.comb(n, k), -1))
        if not _exactly_hermitian(block):
            require_near_hermitian(block)  # raises: a built block is Hermitian unless non-finite
        block.flags.writeable = False
        blocks[k] = block

    run_parallel(n + 1, workers, build)
    return _ExcitationBlockMatrix(tuple(blocks))


def check_coupling_bounds(model: SpinModel, j0: float) -> ConstraintReport:
    """Report every pair with |J_ij| > j0 and the largest ratio |J_ij|/j0."""
    require_positive_j0(j0)
    rows, cols = np.triu_indices(model.n, 1)
    mags = np.abs(model.couplings[rows, cols])
    bad = np.flatnonzero(mags > j0 * (1.0 + 1e-15))
    violations = tuple(Violation(label=f"J_{rows[k] + 1},{cols[k] + 1}",
                                 value=float(mags[k]), bound=j0) for k in bad)
    return ConstraintReport(violations=violations, max_ratio=float((mags / j0).max()))
