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


def pairs_of(matrix):
    """((i, j), matrix[i-1, j-1]) for every 1-based pair i < j, row major."""
    n = len(matrix)
    return [((i, j), matrix[i - 1][j - 1])
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def full_hamiltonian(model):
    """2^N matrix of a SpinModel assembled term by term from Paulis."""
    n = model.n
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for (i, j), v in pairs_of(model.couplings):
        h += v * op_on(n, {i: SPLUS, j: SMINUS})
        h += np.conj(v) * op_on(n, {i: SMINUS, j: SPLUS})
    for (i, j), u in pairs_of(model.zz):
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
    """Single-excitation matrix and vacuum energy of a SpinModel, pair by pair."""
    return sector_from_pairs(model.n, pairs_of(model.couplings), pairs_of(model.zz),
                             model.fields)


def sector_from_pairs(n, coupling_items, zz_items, fields):
    """Single-excitation matrix and vacuum energy, one pair at a time.

    The pair-by-pair construction the vectorized projection replaced.  Both
    ZZ sums add the pairs one by one in the order given, as the builtin
    ``sum`` did before Python 3.12 made float sums compensated.
    """
    coupling_items, zz_items = list(coupling_items), list(zz_items)
    h = np.zeros((n, n), dtype=complex)
    for (i, j), v in coupling_items:
        h[i - 1, j - 1] = v
        h[j - 1, i - 1] = np.conj(v)
    zz_total = 0.0
    for _, u in zz_items:
        zz_total += u
    vac = float(sum(fields)) + float(zz_total)
    diag = np.full(n, vac)
    for i in range(1, n + 1):
        diag[i - 1] -= 2.0 * fields[i - 1]
        zz_sum = 0.0
        for (a, b), u in zz_items:
            if i in (a, b):
                zz_sum += u
        diag[i - 1] -= 2.0 * zz_sum
    h += np.diag(diag)
    return h, vac


def h_opt_pairs(n, j0):
    """Pair dict and fields of the uniform all-to-all optimal Hamiltonian."""
    couplings = {(i, j): complex(j0) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    fields = [0.0] * n
    fields[0] = fields[n - 1] = -(n / 2.0) * j0
    return couplings, tuple(fields)


def h_opt_prime_pairs(n, j0):
    """Pair dict and fields of the star-coupled optimal Hamiltonian."""
    couplings = {(1, n): complex(j0)}
    for k in range(2, n):
        couplings[(1, k)] = complex(j0)
        couplings[(k, n)] = complex(j0)
    fields = [0.0] * n
    fields[0] = fields[n - 1] = -1.5 * j0
    return couplings, tuple(fields)


def full_space_from_pairs(n, coupling_items, zz_items, fields):
    """2^N matrix by index arithmetic, one pair at a time (bit q-1 is qubit q)."""
    dim = 1 << n
    idx = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)

    def zsign(q):
        return 1.0 - 2.0 * ((idx >> (q - 1)) & 1)

    diag = np.zeros(dim)
    for q in range(1, n + 1):
        diag += fields[q - 1] * zsign(q)
    for (i, j), u in zz_items:
        diag += u * zsign(i) * zsign(j)
    h[idx, idx] = diag
    for (i, j), v in coupling_items:
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        src = idx[((idx & bj) != 0) & ((idx & bi) == 0)]
        dst = src ^ bi ^ bj
        h[dst, src] += v
        h[src, dst] += np.conj(v)
    return h, float(diag[0])


def coupling_bounds_loop(couplings, j0):
    """(label, |J|) of each pair above j0, in sorted order, and max |J|/j0."""
    violations = []
    max_ratio = 0.0
    for (i, j), v in sorted(couplings.items()):
        mag = abs(v)
        max_ratio = max(max_ratio, mag / j0)
        if mag > j0 * (1.0 + 1e-15):
            violations.append((f"J_{i},{j}", mag))
    return violations, max_ratio


def reduction_from_pairs(n, couplings, fields):
    """(j1a, jan, j1n, d1, da, dn, frame_shift) of a symmetric pair-dict model."""
    def coupling(i, j):
        return couplings.get((i, j), 0j) if i < j else np.conj(couplings.get((j, i), 0j))

    h, _ = sector_from_pairs(n, couplings.items(), (), fields)
    m = n - 2
    w = np.zeros(n)
    w[1:n - 1] = 1.0 / np.sqrt(m)
    d1 = float(h[0, 0].real)
    da = float((w @ h @ w).real)
    dn = float(h[n - 1, n - 1].real)
    return (np.sqrt(m) * coupling(1, 2), np.sqrt(m) * coupling(2, n), coupling(1, n),
            d1 - dn, da - dn, 0.0, dn)


def effective3_literal(j1a, jan, j1n, d1, da, dn):
    """The 3-level Hamiltonian written out entry by entry."""
    return np.array([
        [d1, j1a, j1n],
        [np.conj(j1a), da, jan],
        [np.conj(j1n), np.conj(jan), dn],
    ], dtype=complex)


def multiplier_literal(m, j1a, jan, j1n):
    """The multiplier operator F of QBMultipliers m, written out entry by entry."""
    return np.array([
        [m.lam1 + m.lam2, m.lam1a * j1a, m.lam1n * j1n],
        [m.lam1a * np.conj(j1a), -2.0 * m.lam2, m.laman * jan],
        [m.lam1n * np.conj(j1n), m.laman * np.conj(jan), -m.lam1 + m.lam2],
    ], dtype=complex)


def qb_residuals_loop(segments, m_traj, n, j0):
    """(qb_equation, normalization, constraint, complementarity), segment by segment.

    The per-segment loop the stacked evaluation replaced: centered
    differences of F between neighboring midpoints (one-sided at the ends,
    zero for one segment) and running maxima of the four residuals.
    """
    segments, m_traj = list(segments), list(m_traj)
    k = len(segments)
    mats = [effective3_literal(h.j1a, h.jan, h.j1n, h.d1, h.da, h.dn) for _, h in segments]
    fs = [multiplier_literal(m, h.j1a, h.jan, h.j1n) for m, (_, h) in zip(m_traj, segments)]
    dts = np.array([dt for dt, _ in segments])
    tmid = np.cumsum(dts) - 0.5 * dts
    bound_a2 = (n - 2) * j0 * j0
    bound_n2 = j0 * j0
    r_qb = r_norm = r_cons = r_comp = 0.0
    for i in range(k):
        h, f, m, eff = mats[i], fs[i], m_traj[i], segments[i][1]
        if k == 1:
            dfdt = np.zeros_like(f)
        else:
            lo, hi = max(i - 1, 0), min(i + 1, k - 1)
            dfdt = (fs[hi] - fs[lo]) / (tmid[hi] - tmid[lo])
        r_qb = max(r_qb, float(np.abs(1j * dfdt - (f @ h - h @ f)).max()))
        r_norm = max(r_norm, abs(float(np.trace(f @ h).real) - 1.0))
        r_cons = max(r_cons,
                     abs(abs(eff.j1a) ** 2 + m.s1a ** 2 - bound_a2),
                     abs(abs(eff.jan) ** 2 + m.san ** 2 - bound_a2),
                     abs(abs(eff.j1n) ** 2 + m.s1n ** 2 - bound_n2))
        r_comp = max(r_comp, abs(m.lam1a * m.s1a), abs(m.laman * m.san),
                     abs(m.lam1n * m.s1n))
    return r_qb, r_norm, r_cons, r_comp


# The pulse search's parameter layout, one branch per control class: complex
# couplings take (Re, Im) column pairs, "real" one column per coupling and
# "real_symmetric" the columns (j1a = jan, j1n, da).

def _disc(values, bound):
    mags = np.abs(values)
    over = mags > bound
    out = values.copy()
    out[over] *= bound / mags[over]
    return out


def project_by_class(problem, x):
    """Clip a (..., dim) batch into the bounds of ``problem.controls``."""
    k, per_seg, bounds, j0 = problem.k, problem.per_seg, problem.bounds, problem.j0
    v = x.reshape(x.shape[:-1] + (k, per_seg)).copy()
    if problem.controls == "real_symmetric":
        v[..., 0] = np.clip(v[..., 0], -bounds[0], bounds[0])
        v[..., 1] = np.clip(v[..., 1], -j0, j0)
    elif problem.controls == "real":
        for col, bound in enumerate(bounds):
            v[..., col] = np.clip(v[..., col], -bound, bound)
    else:
        for col, bound in zip((0, 2, 4), bounds):
            jc = _disc(v[..., col] + 1j * v[..., col + 1], bound)
            v[..., col], v[..., col + 1] = jc.real, jc.imag
    return v.reshape(x.shape)


def expand_by_class(problem, xs):
    """(j1a, jan, j1n, d1, da, dn), each (..., K), of a (..., dim) batch."""
    v = xs.reshape(xs.shape[:-1] + (problem.k, problem.per_seg))
    if problem.controls == "real_symmetric":
        ja = v[..., 0].astype(complex)
        zeros = np.zeros(ja.shape)
        return (ja, ja.copy(), v[..., 1].astype(complex),
                zeros, v[..., 2].copy(), zeros.copy())
    if problem.controls == "real":
        return (*(v[..., col].astype(complex) for col in range(3)),
                *(v[..., col].copy() for col in range(3, 6)))
    return (*(v[..., col] + 1j * v[..., col + 1] for col in (0, 2, 4)),
            *(v[..., col].copy() for col in range(6, 9)))


def random_start_by_class(problem, stream, constant):
    """In-bounds start drawn from ``stream``: disc-uniform complex couplings,
    uniform real couplings and diagonals uniform in [-4 j0, 4 j0]."""
    k, per_seg, bounds, j0 = problem.k, problem.per_seg, problem.bounds, problem.j0
    rows = 1 if constant else k
    u = stream.uniform(rows * per_seg).reshape(rows, per_seg)
    v = np.zeros((rows, per_seg))
    if problem.controls == "real_symmetric":
        v[:, 0] = (2 * u[:, 0] - 1) * bounds[0]
        v[:, 1] = (2 * u[:, 1] - 1) * j0
        v[:, 2] = (2 * u[:, 2] - 1) * 4 * j0
    elif problem.controls == "real":
        for col, bound in enumerate(bounds):
            v[:, col] = (2 * u[:, col] - 1) * bound
        v[:, 3:6] = (2 * u[:, 3:6] - 1) * 4 * j0
    else:
        for col, bound in zip((0, 2, 4), bounds):
            mag = bound * np.sqrt(u[:, col])
            ang = 2 * np.pi * u[:, col + 1]
            v[:, col] = mag * np.cos(ang)
            v[:, col + 1] = mag * np.sin(ang)
        v[:, 6:9] = (2 * u[:, 6:9] - 1) * 4 * j0
    if constant:
        v = np.repeat(v, k, axis=0)
    return v.reshape(-1)
