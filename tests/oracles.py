"""Independent brute-force oracles used by the tests.

Everything here is built from explicit Kronecker products of 2x2 Pauli
matrices, deliberately sharing no code with the package's vectorized
constructions.
"""

import numpy as np

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)       # +1 on |0>, -1 on |1>
SPLUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
SMINUS = SPLUS.conj().T


def op_on(n, ops_by_qubit):
    """Tensor product with the given 2x2 operators on 1-based qubits.

    Qubit q occupies bit (q-1) of the basis index, bit 0 least significant,
    matching the package's full-space convention.
    """
    out = np.array([[1.0 + 0.0j]])
    for q in range(n, 0, -1):
        out = np.kron(out, ops_by_qubit.get(q, ID2))
    return out


def full_hamiltonian(model):
    """2^N matrix of a SpinModel assembled term by term from Paulis."""
    n = model.n
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for (i, j), v in model.couplings.items():
        h += v * op_on(n, {i: SPLUS, j: SMINUS})
        h += np.conj(v) * op_on(n, {i: SMINUS, j: SPLUS})
    for (i, j), u in model.zz.items():
        h += u * op_on(n, {i: SZ, j: SZ})
    for q in range(1, n + 1):
        h += model.fields[q - 1] * op_on(n, {q: SZ})
    return h


def single_excitation_basis(n):
    """Columns embedding the single-excitation states into the full space."""
    cols = np.zeros((2 ** n, n), dtype=complex)
    for q in range(1, n + 1):
        cols[1 << (q - 1), q - 1] = 1.0
    return cols


def excitation_number(n):
    """Diagonal of the total excitation-number operator in the full space."""
    idx = np.arange(2 ** n)
    return np.array([bin(s).count("1") for s in idx])


def eig_propagator(h, t):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def unbatched_eigh_propagator(h, t):
    """exp(-i h t) by the one-matrix formula the batched kernel replaced.

    The real-symmetric ``eigh`` when h has no imaginary part, then
    (v e^{-i w t}) v^H; ``evolve_constant`` must reproduce it bit for bit.
    """
    m = np.asarray(h, dtype=complex)
    if np.abs(m.imag).max() == 0.0:
        w, v = np.linalg.eigh(m.real)
        v = v.astype(complex)
    else:
        w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def sequential_product(us):
    """U_K ... U_1 of each candidate's (K, d, d) stack, one multiply at a time."""
    out = []
    for stack in us:
        u = stack[0]
        for seg in stack[1:]:
            u = seg @ u
        out.append(u)
    return np.array(out)


def single_excitation_loop(model):
    """Single-excitation matrix and vacuum energy, one pair at a time.

    The pair-by-pair construction the vectorized projection replaced.  Its
    per-site ZZ sums add the pairs one by one in dictionary order, as the
    builtin ``sum`` did before Python 3.12 made float sums compensated.
    """
    n = model.n
    h = np.zeros((n, n), dtype=complex)
    for (i, j), v in model.couplings.items():
        h[i - 1, j - 1] = v
        h[j - 1, i - 1] = np.conj(v)
    vac = float(sum(model.fields)) + float(sum(model.zz.values()))
    diag = np.full(n, vac)
    for i in range(1, n + 1):
        diag[i - 1] -= 2.0 * model.fields[i - 1]
        zz_sum = 0.0
        for (a, b), u in model.zz.items():
            if i in (a, b):
                zz_sum += u
        diag[i - 1] -= 2.0 * zz_sum
    h += np.diag(diag)
    return h, vac
