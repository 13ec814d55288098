"""Quantum-brachistochrone machinery for the bounded three-coupling problem.

The time-optimal transfer problem has three inequality-bounded controls
(|j1a|, |jan| <= sqrt(N-2) j0 and |j1n| <= j0).  Turning each bound into an
equality with a slack variable and demanding stationarity of the action
yields, per constraint, either "multiplier = 0" (bound inactive) or
"slack = 0" (control pinned at the bound).  The eight resulting cases form
the catalog below; only cases 6, 7, 8 admit solutions, with closed-form
minimum times and propagators.

On a control trajectory the stationarity conditions are

    i dF/dt = [F, H]        (evolution of the multiplier operator)
    Tr[F H] = 1             (normalization)
    |J|^2 + s^2 = bound^2   (constraint equations)
    lambda * s = 0          (complementarity)

with F assembled from the multipliers and couplings; ``qb_residuals``
evaluates all four on a schedule grid.  A NaN or inf argument of a case
function raises InvalidSizeError naming it, even where the case ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .effective3 import Effective3, coupling_bounds, effective_matrices
from .exceptions import BoundViolationError, GridMismatchError, UnsupportedCaseError
from .propagator import _checked_schedule, minimum_transfer_time
from .spin_model import require_finite, require_transfer_size


@dataclass(frozen=True)
class QBMultipliers:
    """Lagrange multipliers and slack magnitudes for the three-coupling problem.

    ``lam1``/``lam2`` multiply the two diagonal (zero-trace) equality
    constraints; the remaining multipliers and slacks belong to the three
    coupling bounds.
    """

    lam1: float = 0.0
    lam2: float = 0.0
    lam1a: float = 0.0
    laman: float = 0.0
    lam1n: float = 0.0
    s1a: float = 0.0
    san: float = 0.0
    s1n: float = 0.0

    def __post_init__(self):
        for name in ("s1a", "san", "s1n"):
            if getattr(self, name) < 0:
                raise BoundViolationError(f"slack {name} must be nonnegative")


@dataclass(frozen=True)
class CaseSpec:
    """One row of the case catalog.

    Each constraint in {"1A", "AN", "1N"} contributes exactly one vanishing
    quantity: its multiplier if it is in ``zero_multipliers``, else its slack.
    """

    id: int
    zero_multipliers: frozenset[str]
    has_minimum: bool

    @property
    def zero_slacks(self) -> frozenset[str]:
        return frozenset({"1A", "AN", "1N"}) - self.zero_multipliers


CASE_TABLE: tuple[CaseSpec, ...] = (
    CaseSpec(1, frozenset({"1A", "AN", "1N"}), False),
    CaseSpec(2, frozenset({"AN", "1N"}), False),
    CaseSpec(3, frozenset({"1A", "1N"}), False),
    CaseSpec(4, frozenset({"AN"}), False),
    CaseSpec(5, frozenset({"1A"}), False),
    CaseSpec(6, frozenset({"1A", "AN"}), True),
    CaseSpec(7, frozenset({"1N"}), True),
    CaseSpec(8, frozenset(), True),
)


def _case(case_id: int) -> CaseSpec:
    if not 1 <= case_id <= 8:
        raise UnsupportedCaseError(f"case id must be 1..8, got {case_id}")
    return CASE_TABLE[case_id - 1]


@dataclass(frozen=True)
class ResidualReport:
    """Max-norm residuals of the four stationarity conditions over a grid."""

    qb_equation: float
    normalization: float
    constraint: float
    complementarity: float

    @property
    def max_residual(self) -> float:
        return float(np.max([self.qb_equation, self.normalization,
                             self.constraint, self.complementarity]))


def qb_residuals(segments, m_traj, n: int, j0: float) -> ResidualReport:
    """Evaluate the stationarity residuals on a piecewise-constant schedule.

    ``segments`` is a nonempty sequence of (duration, Effective3) with finite
    positive durations, checked as ``evolve_schedule`` checks its schedule,
    and ``m_traj`` one QBMultipliers per segment.  dF/dt uses centered
    differences between neighboring segment midpoints (one-sided at the
    ends; zero for a single segment), so a constant trajectory has exactly
    zero time-derivative and the first residual reduces to max |[F, H]|.
    """
    segments, m_traj = list(segments), list(m_traj)
    if len(segments) != len(m_traj):
        raise GridMismatchError(f"{len(m_traj)} multiplier points for {len(segments)} segments")
    fields = np.array([(h.j1a, h.jan, h.j1n, h.d1, h.da, h.dn) for _, h in segments],
                      dtype=complex).reshape(-1, 6)
    dts, h = _checked_schedule([dt for dt, _ in segments], effective_matrices(*fields.T))
    bounds2 = np.square(coupling_bounds(n, j0))
    mults = np.array([(m.lam1, m.lam2, m.lam1a, m.laman, m.lam1n, m.s1a, m.san, m.s1n)
                      for m in m_traj], dtype=float)
    couplings, lam1, lam2 = fields[:, :3], mults[:, 0], mults[:, 1]
    lams, slacks = mults[:, 2:5], mults[:, 5:]
    f = effective_matrices(*(lams * couplings).T, lam1 + lam2, -2.0 * lam2, -lam1 + lam2)

    k = len(segments)
    tmid = np.cumsum(dts) - 0.5 * dts
    lo, hi = np.maximum(np.arange(k) - 1, 0), np.minimum(np.arange(k) + 1, k - 1)
    dfdt = (f[hi] - f[lo]) / (tmid[hi] - tmid[lo])[:, None, None] if k > 1 else np.zeros_like(f)
    r_qb = np.abs(1j * dfdt - (f @ h - h @ f)).max()
    r_norm = np.abs(np.einsum("kij,kji->k", f, h).real - 1.0).max()
    r_cons = np.abs(np.abs(couplings) ** 2 + slacks ** 2 - bounds2).max()
    r_comp = np.abs(lams * slacks).max()
    return ResidualReport(qb_equation=float(r_qb), normalization=float(r_norm),
                          constraint=float(r_cons), complementarity=float(r_comp))


def _require_case7_bar(j1n_bar: float | None, j0: float) -> None:
    """Case 7 needs a source-target coupling with |j1n_bar| <= j0."""
    if j1n_bar is None:
        raise UnsupportedCaseError("case 7 needs j1n_bar")
    if abs(j1n_bar) > j0 * (1.0 + 1e-12):
        raise BoundViolationError(f"|j1n_bar|={abs(j1n_bar)} exceeds j0={j0}")


def stationary_multipliers(case_id: int, n: int, j0: float,
                           j1n_bar: float | None = None) -> QBMultipliers:
    """Constant multipliers solving the stationarity system for case 7 or 8.

    Verification frame: zero diagonals, constant coupling phases, coupling
    magnitudes (sqrt(n-2) j0, sqrt(n-2) j0, |j1n|).  In that frame the
    linear system formed by the two off-diagonal stationarity equations and
    the normalization has the unique solutions hard-coded here:

    * case 8 (all couplings saturated): lam2 = 0 and
      lam1a = laman = lam1n = 1 / (2 (2n-3) j0^2), i.e. F is proportional
      to H.
    * case 7 interior (|j1n| < j0, multiplier lam1n = 0):
      lam1a = laman = 1 / (4 (n-2) j0^2), lam2 = j1n_bar * lam1a / 3, with
      slack s1n = sqrt(j0^2 - j1n_bar^2).  At |j1n_bar| = j0 the case-8
      solution is returned (the case reduces to case 8 at saturation).
    """
    require_finite(j1n_bar=j1n_bar)
    if case_id not in (7, 8):
        raise UnsupportedCaseError(
            f"only cases 7 and 8 have constant-control stationary solutions, got {case_id}")
    require_transfer_size(n, j0)
    if case_id == 8:
        lam = 1.0 / (2.0 * (2 * n - 3) * j0 * j0)
        return QBMultipliers(lam1a=lam, laman=lam, lam1n=lam)
    _require_case7_bar(j1n_bar, j0)
    if abs(abs(j1n_bar) - j0) <= 1e-12 * j0:
        return stationary_multipliers(8, n, j0)
    lam_a = 1.0 / (4.0 * (n - 2) * j0 * j0)
    return QBMultipliers(
        lam2=j1n_bar * lam_a / 3.0,
        lam1a=lam_a, laman=lam_a,
        s1n=float(np.sqrt(j0 * j0 - j1n_bar * j1n_bar)),
    )


def case_stationary_solution(case_id: int, n: int, j0: float,
                             j1n_bar: float | None = None,
                             phi_1n: float = 0.0) -> tuple[Effective3, QBMultipliers]:
    """Constant Hamiltonian and multipliers verifying a case's stationarity.

    Supports the three solvable cases; the Hamiltonian lives in the
    zero-diagonal, constant-phase verification frame.
    """
    require_finite(j1n_bar=j1n_bar, phi_1n=phi_1n)
    a, _, _ = coupling_bounds(n, j0)
    if case_id == 6:
        m = QBMultipliers(lam1n=1.0 / (2.0 * j0 * j0), s1a=a, san=a)
        return case_hamiltonian(6, n, j0, phi_1n=phi_1n), m
    if case_id in (7, 8):
        corner = j0 if case_id == 8 else float(j1n_bar if j1n_bar is not None else j0)
        m = stationary_multipliers(case_id, n, j0, j1n_bar=corner if case_id == 7 else None)
        h = Effective3(j1a=a, jan=a, j1n=corner)
        return h, m
    raise UnsupportedCaseError(f"case {case_id} has no stationary solution")


def case_minimum_time(case_id: int, n: int, j0: float,
                      j1n_bar: float | None = None) -> float | None:
    """Minimum transfer time of a catalog case; None where no minimum exists."""
    spec = _case(case_id)
    require_transfer_size(n, j0)
    require_finite(j1n_bar=j1n_bar)
    if not spec.has_minimum:
        return None
    if case_id == 6:
        return float(np.pi / (2.0 * j0))
    if case_id == 7:
        _require_case7_bar(j1n_bar, j0)
        return float(np.pi / np.sqrt(2.0 * (n - 2) * j0 * j0 + 4.0 * j1n_bar * j1n_bar))
    return float(minimum_transfer_time(n, j0))


def case_hamiltonian(case_id: int, n: int, j0: float, *, phi_1n: float = 0.0,
                     c1a: float | None = None, j1n_bar: float | None = None,
                     sign: int = 1) -> Effective3:
    """The constant Hamiltonian whose exact propagator ``case_unitary`` is.

    Case 6 couples only source and target.  Case 7 is the mirror-symmetric
    real form with corner diagonals c1a - |j1n_bar| (c1a defaults to its
    minimal-time value 4 |j1n_bar|).  Case 8 is the saturated family form
    with corner diagonals 3 sign j0 and relative coupling sign ``sign``.
    """
    require_finite(phi_1n=phi_1n, c1a=c1a, j1n_bar=j1n_bar)
    a, _, _ = coupling_bounds(n, j0)
    if case_id == 6:
        return Effective3(j1a=0.0, jan=0.0, j1n=j0 * np.exp(-1j * phi_1n))
    if case_id == 7:
        _require_case7_bar(j1n_bar, j0)
        m = abs(j1n_bar)
        c = 4.0 * m if c1a is None else float(c1a)
        return Effective3(j1a=a, jan=a, j1n=m, d1=c - m, da=0.0, dn=c - m)
    if case_id == 8:
        if sign not in (1, -1):
            raise UnsupportedCaseError(f"sign branch must be +1 or -1, got {sign}")
        c = 3.0 * sign * j0
        return Effective3(j1a=a, jan=sign * a, j1n=j0, d1=c, da=0.0, dn=c)
    raise UnsupportedCaseError(f"no closed-form Hamiltonian for case {case_id}")


def _family_unitary(h: Effective3, t: float) -> np.ndarray:
    """Exact propagator of a case 7/8 Hamiltonian [[c, a, b], [a, 0, s a], [b, s a, c]].

    Reads the real coupling a = j1a > 0, the sign s = jan / a, the corner
    b = j1n and the corner diagonal c = d1 = dn from ``h``.  The vector
    (1, 0, -s)/sqrt(2) decouples with eigenvalue c - s b; the rest is a
    two-level block with corner energy e = c + s b and splitting
    omega = sqrt(e^2 + 8 a^2).
    """
    a, corner, cdiag = h.j1a.real, h.j1n.real, h.d1
    sign = 1 if h.jan == h.j1a else -1
    e_dec = cdiag - sign * corner
    e_blk = cdiag + sign * corner
    omega = np.sqrt(e_blk * e_blk + 8.0 * a * a)
    half = 0.5 * omega * t
    blk_phase = np.exp(-0.5j * e_blk * t)
    u_bb = blk_phase * (np.cos(half) - 1j * (e_blk / omega) * np.sin(half))
    u_22 = blk_phase * (np.cos(half) + 1j * (e_blk / omega) * np.sin(half))
    dec_phase = np.exp(-1j * e_dec * t)

    u11 = 0.5 * (u_bb + dec_phase)
    u13 = sign * (u11 - dec_phase)
    u12 = -1j * blk_phase * (2.0 * a / omega) * np.sin(half)
    return np.array([
        [u11, u12, u13],
        [u12, u_22, sign * u12],
        [u13, sign * u12, u11],
    ], dtype=complex)


def case_unitary(case_id: int, n: int, j0: float, t: float, *,
                 phi_1n: float = 0.0, c1a: float | None = None,
                 j1n_bar: float | None = None, sign: int = 1) -> np.ndarray:
    """Closed-form propagator of a solvable case at time t.

    Case 6: two-level source-target rotation at rate j0 with phase phi_1n.
    Case 7: the mirror-symmetric family with free diagonal parameter c1a
    (default 4 |j1n_bar|, the minimal-time choice) and corner |j1n_bar|.
    Case 8: the saturated family on the ``sign`` branch, corner diagonal
    3 sign j0; perfect transfer at t = pi/(j0 sqrt(2 n)).
    """
    require_finite(t=t, phi_1n=phi_1n, c1a=c1a, j1n_bar=j1n_bar)
    if case_id == 6:
        require_transfer_size(n, j0)
        ct, st = np.cos(j0 * t), np.sin(j0 * t)
        return np.array([
            [ct, 0.0, -1j * np.exp(-1j * phi_1n) * st],
            [0.0, 1.0, 0.0],
            [-1j * np.exp(1j * phi_1n) * st, 0.0, ct],
        ], dtype=complex)
    if case_id in (7, 8):
        h = case_hamiltonian(case_id, n, j0, c1a=c1a, j1n_bar=j1n_bar, sign=sign)
        return _family_unitary(h, t)
    raise UnsupportedCaseError(f"no closed-form unitary for case {case_id}")


def case_table_rows(n: int, j0: float, j1n_bar: float | None = None) -> list[dict]:
    """Catalog rows with minimum times evaluated at (n, j0) for CSV export.

    Case 7 uses ``j1n_bar`` (default: the saturating value j0, where it
    coincides with case 8).
    """
    jbar = j0 if j1n_bar is None else j1n_bar
    rows = []
    for spec in CASE_TABLE:
        t = case_minimum_time(spec.id, n, j0, j1n_bar=jbar)
        rows.append({
            "case_id": spec.id,
            "zero_multipliers": ",".join(sorted(spec.zero_multipliers)),
            "zero_slacks": ",".join(sorted(spec.zero_slacks)),
            "has_minimum": spec.has_minimum,
            "t_min": "none" if t is None else f"{t:.17g}",
        })
    return rows
