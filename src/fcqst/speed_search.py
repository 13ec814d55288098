"""Empirical speed-limit probes: bounded pulse search and time bisection.

The optimizer maximizes the transfer amplitude |<phi_3|U(T)|phi_1>| over
piecewise-constant controls of the 3-level reduction, with every segment
projected back inside the amplitude bounds after each step.  Bisection over
the total time then maps the shortest duration at which a target fidelity
becomes reachable.

Three control classes can be searched, each named by one key of
``CONTROL_CLASSES`` and passed as ``controls``.  The default, "complex",
makes each coupling a point in its disc, so any loop flux
arg(j1a jan conj(j1n)) is available.  "real" restricts the couplings to
real values of either sign with free real diagonals (real XY couplings plus
free single-qubit fields): the time-reversal symmetric class, whose loop
flux is 0 or pi.  "real_symmetric" narrows that further to j1a = jan with
d1 = dn = 0.  Each class is one row of ``CONTROL_CLASSES``, its parameter
layout, which projection, expansion and random starts all walk.  Which
subclass the paper's bound pi/(j0 sqrt(2 n)) refers to is not settled by
its abstract; this package reads it as the real-coupling class.  The
complex class cannot be meant: at n = 3 the constant chiral triangle
(flux -pi/2) transfers perfectly at 2 pi / (3 sqrt(3) j0), 0.9428 of the
reference, whereas on the real-coupling class the search finds no protocol
faster than the reference.

Method: multi-start projected gradient ascent with central-difference
gradients and a backtracking line search, falling back to a shrinking
coordinate search when gradients stall.  Each restart draws its start from
its own ``rng`` stream, keyed by the seed and the restart index, so results
are bit-reproducible from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .effective3 import coupling_bounds, effective_matrices
from .exceptions import InvalidSizeError
from .propagator import minimum_transfer_time, ordered_product, segment_propagators
from .spin_model import require_finite, require_integer, require_transfer_size

# Per-segment parameter layout of each control class.  A row is
# (couplings, diagonals): the columns (re, im) of j1a, jan and j1n, with im
# None for a real coupling, and the columns of d1, da and dn, with None for a
# diagonal held at 0.  Couplings that name one column share it.
CONTROL_CLASSES = {
    "complex": (((0, 1), (2, 3), (4, 5)), (6, 7, 8)),
    "real": (((0, None), (1, None), (2, None)), (3, 4, 5)),
    "real_symmetric": (((0, None), (0, None), (1, None)), (None, 2, None)),
}


def _control_class(controls: str):
    """The ``CONTROL_CLASSES`` row named by ``controls``; an unknown key raises."""
    try:
        return CONTROL_CLASSES[controls]
    except KeyError:
        raise InvalidSizeError(f"controls must be one of {', '.join(CONTROL_CLASSES)}, "
                               f"got {controls!r}") from None


def _require_search_size(n: int, j0: float, n_segments: int, restarts: int, seed: int,
                         max_iters: int, stop_fidelity: float | None = None) -> None:
    """Raise InvalidSizeError unless (n, j0) is a transfer size, both counts are integers >= 1,
    the seed is an integer, ``max_iters`` is an integer >= 0 and ``stop_fidelity`` is None
    or finite."""
    require_transfer_size(n, j0)
    require_integer(seed, "seed")
    if require_integer(n_segments, "n_segments") < 1 or require_integer(restarts, "restarts") < 1:
        raise InvalidSizeError("need n_segments >= 1, restarts >= 1")
    if require_integer(max_iters, "max_iters") < 0:
        raise InvalidSizeError(f"max_iters must be >= 0, got {max_iters}")
    require_finite(stop_fidelity=stop_fidelity)


def _require_total_time(total_time: float) -> None:
    if not (math.isfinite(total_time) and total_time >= 0):
        raise InvalidSizeError(f"total_time must be finite and nonnegative, got {total_time}")


@dataclass(frozen=True, eq=False)
class PulseParams:
    """Piecewise-constant control over uniform segments of a fixed total time.

    Construction rejects an invalid n or j0, a non-finite or negative total
    time, non-finite couplings and non-real or non-finite diagonals.
    """

    n: int
    j0: float
    total_time: float
    j1a: np.ndarray
    jan: np.ndarray
    j1n: np.ndarray
    d1: np.ndarray
    da: np.ndarray
    dn: np.ndarray

    def __post_init__(self):
        require_transfer_size(self.n, self.j0)
        _require_total_time(self.total_time)
        k = len(self.j1a)
        for name in ("jan", "j1n", "d1", "da", "dn"):
            if len(getattr(self, name)) != k:
                raise InvalidSizeError("per-segment arrays must share one length")
        for name in ("j1a", "jan", "j1n"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if not np.isfinite(arr).all():
                raise InvalidSizeError(f"coupling {name} must be finite")
            object.__setattr__(self, name, arr)
        for name in ("d1", "da", "dn"):
            arr = np.asarray(getattr(self, name))
            if not (np.isrealobj(arr) and np.isfinite(arr).all()):
                raise InvalidSizeError(f"diagonal {name} must be real and finite")
            object.__setattr__(self, name, np.asarray(arr, dtype=float))

    @property
    def n_segments(self) -> int:
        return len(self.j1a)

    def matrices(self) -> np.ndarray:
        return effective_matrices(self.j1a, self.jan, self.j1n, self.d1, self.da, self.dn)

    def bound_report(self) -> dict[str, float]:
        ba, _, bn = coupling_bounds(self.n, self.j0)
        return {"j1a": float(np.abs(self.j1a).max() / ba),
                "jan": float(np.abs(self.jan).max() / ba),
                "j1n": float(np.abs(self.j1n).max() / bn)}


@dataclass(frozen=True)
class SearchResult:
    """Best transfer found at one total time; comparisons skip ``best_pulse``."""

    total_time: float
    best_fidelity: float
    best_pulse: PulseParams = field(compare=False)
    evaluations: int
    seed: int
    restarts_hit_bound: int = 0


def _project_disc(values: np.ndarray, bound: float) -> np.ndarray:
    """Radial projection of complex amplitudes onto |v| <= bound (idempotent)."""
    mags = np.abs(values)
    over = mags > bound
    out = values.copy()
    out[over] *= bound / mags[over]
    return out


class _Problem:
    """Vectorized fidelity of the parameter vector, with bound projection.

    ``controls`` names the searched class, a key of ``CONTROL_CLASSES``
    (see the module docstring).
    """

    def __init__(self, n, j0, total_time, n_segments, controls):
        self.n, self.j0 = n, j0
        self.total_time = total_time
        self.k = n_segments
        self.controls = controls
        self.couplings, self.diagonals = _control_class(controls)
        self.bounds = coupling_bounds(n, j0)  # j1a, jan, j1n
        columns = [c for pair in self.couplings for c in pair] + list(self.diagonals)
        self.per_seg = 1 + max(c for c in columns if c is not None)
        self.dim = self.per_seg * n_segments
        self.durations = np.full(n_segments, total_time / n_segments)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Clip a (..., dim) batch of parameter vectors into the bounds."""
        v = x.reshape(x.shape[:-1] + (self.k, self.per_seg)).copy()
        for (re, im), bound in zip(self.couplings, self.bounds):
            if im is None:
                v[..., re] = np.clip(v[..., re], -bound, bound)
            else:
                jc = _project_disc(v[..., re] + 1j * v[..., im], bound)
                v[..., re], v[..., im] = jc.real, jc.imag
        return v.reshape(x.shape)

    def expand(self, xs: np.ndarray) -> tuple[np.ndarray, ...]:
        """(j1a, jan, j1n, d1, da, dn), each (..., K), of a (..., dim) batch.

        Every array is a fresh copy, so pulses alias neither the parameter
        vector nor each other.
        """
        v = xs.reshape(xs.shape[:-1] + (self.k, self.per_seg))
        return (*(v[..., re].astype(complex) if im is None else v[..., re] + 1j * v[..., im]
                  for re, im in self.couplings),
                *(np.zeros(v.shape[:-1]) if col is None else v[..., col].copy()
                  for col in self.diagonals))

    def matrices(self, xs: np.ndarray) -> np.ndarray:
        """(..., K, 3, 3) Hamiltonian stacks for a (..., dim) batch of vectors."""
        return effective_matrices(*self.expand(xs))

    def fidelity_batch(self, xs: np.ndarray) -> np.ndarray:
        """|<phi_3|U(T)|phi_1>| for each vector of a (C, dim) batch."""
        us = segment_propagators(self.matrices(xs), self.durations)
        return np.abs(ordered_product(us)[..., 2, 0])

    def fidelity(self, x: np.ndarray) -> float:
        return float(self.fidelity_batch(x[None])[0])

    def pulse(self, x: np.ndarray) -> PulseParams:
        return PulseParams(self.n, self.j0, self.total_time, *self.expand(x))

    def random_start(self, key: int, constant: bool) -> np.ndarray:
        """Random in-bounds start from stream ``key``; ``constant`` replicates one draw
        across segments."""
        rows = 1 if constant else self.k
        # a start reads from draw 2^32 of its stream on; seeded searches
        # depend on that offset, so it stays.
        u = rng.uniforms(key, 1 << 32, rows * self.per_seg).reshape(rows, self.per_seg)
        v = np.zeros((rows, self.per_seg))
        for (re, im), bound in zip(self.couplings, self.bounds):
            if im is None:
                v[:, re] = (2 * u[:, re] - 1) * bound
            else:
                mag = bound * np.sqrt(u[:, re])
                ang = 2 * np.pi * u[:, im]
                v[:, re] = mag * np.cos(ang)
                v[:, im] = mag * np.sin(ang)
        for col in self.diagonals:
            if col is not None:
                v[:, col] = (2 * u[:, col] - 1) * 4 * self.j0
        if constant:
            v = np.repeat(v, self.k, axis=0)
        return v.reshape(-1)


def _ascend(problem: _Problem, x0: np.ndarray, max_iters: int,
            stop_fidelity: float | None):
    """Projected gradient ascent with line search; returns (x, f, evaluations)."""
    x = problem.project(x0)
    f = problem.fidelity(x)
    evals = 1
    step = 0.3
    delta = 0.1  # coordinate-search radius, shrunk on failure
    eye = np.eye(problem.dim)
    for _ in range(max_iters):
        if stop_fidelity is not None and f >= stop_fidelity:
            break
        eps = 1e-6 * np.maximum(1.0, np.abs(x))
        probes = np.concatenate([x + np.diag(eps), x - np.diag(eps)], axis=0)
        fs = problem.fidelity_batch(probes)
        evals += probes.shape[0]
        grad = (fs[:problem.dim] - fs[problem.dim:]) / (2 * eps)
        gnorm = float(np.linalg.norm(grad))

        improved = False
        if gnorm > 1e-13:
            direction = grad / gnorm
            alpha = step
            for _ in range(25):
                cand = problem.project(x + alpha * direction)
                fc = problem.fidelity(cand)
                evals += 1
                if fc > f + 1e-15:
                    x, f = cand, fc
                    step = min(alpha * 1.6, 2.0)
                    improved = True
                    break
                alpha *= 0.5
        if not improved:
            # derivative-free fallback: axis steps of +-delta
            cands = problem.project(np.concatenate([x + delta * eye, x - delta * eye], axis=0))
            fs = problem.fidelity_batch(cands)
            evals += cands.shape[0]
            best = int(np.argmax(fs))
            if fs[best] > f + 1e-15:
                x, f = cands[best], fs[best]
                improved = True
            else:
                delta *= 0.3
                step *= 0.5
                if delta < 1e-9:
                    break
    return x, f, evals


def optimize_pulse(n: int, j0: float, total_time: float, n_segments: int,
                   restarts: int, seed: int, *, controls: str = "complex",
                   max_iters: int = 200,
                   stop_fidelity: float | None = None) -> SearchResult:
    """Maximize transfer fidelity over bounded piecewise-constant controls.

    Restarts are independent (restart r draws from the stream keyed by
    (seed, r); even restarts draw a constant-in-time start, odd ones draw
    per-segment starts) and the best result wins, ties broken by the lower
    restart index.  Deterministic for fixed arguments and seed.

    ``controls`` names the searched class, a key of ``CONTROL_CLASSES``:
    "complex" (the default) searches complex couplings, "real" real
    couplings of either sign with free real diagonals (loop flux 0 or pi),
    "real_symmetric" the narrower j1a = jan, d1 = dn = 0 class.
    """
    _require_search_size(n, j0, n_segments, restarts, seed, max_iters, stop_fidelity)
    _require_total_time(total_time)
    problem = _Problem(n, j0, total_time, n_segments, controls)
    if total_time == 0:
        # U = I at zero time regardless of the pulse
        x = problem.project(np.zeros(problem.dim))
        return SearchResult(total_time=total_time, best_fidelity=0.0,
                            best_pulse=problem.pulse(x), evaluations=1, seed=seed)

    best_x, best_f, total_evals, hit_bound = None, -1.0, 0, 0
    for restart in range(restarts):
        x0 = problem.random_start(rng.derive_key(seed, restart), constant=(restart % 2 == 0))
        x, f, evals = _ascend(problem, x0, max_iters, stop_fidelity)
        total_evals += evals
        if max(problem.pulse(x).bound_report().values()) >= 1.0 - 1e-9:
            hit_bound += 1
        if f > best_f:
            best_x, best_f = x, f
        if stop_fidelity is not None and best_f >= stop_fidelity:
            break
    # clamped into [0, 1] against unitarity roundoff
    return SearchResult(total_time=total_time, best_fidelity=min(best_f, 1.0),
                        best_pulse=problem.pulse(best_x),
                        evaluations=total_evals, seed=seed, restarts_hit_bound=hit_bound)


def pulse_to_schedule(pulse: PulseParams) -> tuple[np.ndarray, np.ndarray]:
    """The (durations, matrices) schedule of a pulse, for ``evolve_schedule``."""
    return np.full(pulse.n_segments, pulse.total_time / pulse.n_segments), pulse.matrices()


@dataclass(frozen=True)
class BisectionResult:
    t_star: float
    fid_target: float
    samples: tuple[SearchResult, ...]
    monotonic_warning: bool


def min_time_bisection(n: int, j0: float, fid_target: float, time_tol: float,
                       *, n_segments: int = 8, restarts: int = 8, seed: int = 0,
                       max_iters: int = 150, controls: str = "complex") -> BisectionResult:
    """Smallest total time at which the optimizer reaches ``fid_target``.

    Bisects on [0, 2 pi / (j0 sqrt(2 n))], i.e. up to twice the closed-form
    reference.  Achievable fidelity is assumed monotone in the total time;
    the sampled points are checked and a violation beyond 1e-6 (an optimizer
    failure, not physics) sets ``monotonic_warning``.  Bisection stops once
    the bracket is no wider than ``time_tol``, or once its ends are adjacent
    floats.  ``controls``, a key of ``CONTROL_CLASSES``, is passed on to
    :func:`optimize_pulse`; ``samples`` holds each probe's own result.
    """
    # bad sizes and an unknown class raise before the trivial return
    _require_search_size(n, j0, n_segments, restarts, seed, max_iters)
    _control_class(controls)
    if not (math.isfinite(time_tol) and time_tol > 0):
        raise InvalidSizeError(f"time_tol must be finite and positive, got {time_tol}")
    if fid_target <= 0.0:
        return BisectionResult(t_star=0.0, fid_target=fid_target, samples=(),
                               monotonic_warning=False)
    if not 0.9 < fid_target < 1.0:
        raise InvalidSizeError(
            f"fid_target must lie in (0.9, 1) (or be <= 0 for the trivial case), got {fid_target}")

    samples = []

    def probe(t: float) -> bool:
        res = optimize_pulse(n, j0, t, n_segments, restarts, seed,
                             controls=controls, max_iters=max_iters,
                             stop_fidelity=fid_target)
        samples.append(res)
        return res.best_fidelity >= fid_target

    lo, hi = 0.0, 2.0 * minimum_transfer_time(n, j0)
    if not probe(hi):
        return BisectionResult(t_star=hi, fid_target=fid_target,
                               samples=tuple(samples), monotonic_warning=True)
    while hi - lo > time_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if probe(mid):
            hi = mid
        else:
            lo = mid

    ordered = sorted(samples, key=lambda s: s.total_time)
    warning = any(a.best_fidelity > b.best_fidelity + 1e-6
                  for a, b in zip(ordered, ordered[1:]))
    return BisectionResult(t_star=hi, fid_target=fid_target, samples=tuple(samples),
                           monotonic_warning=warning)

