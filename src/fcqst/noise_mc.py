"""Monte Carlo robustness of the optimal transfer under static disorder.

The noise model perturbs one optimal Hamiltonian with an independent real
Gaussian amplitude per unordered coupling pair (std sigma_c) and Gaussian
shifts of the source/target fields (std sigma_f).  The figure of merit is
the overlap

    F = <phi_1| exp(+i H_base t) exp(-i H_noisy t) |phi_1>,   t = pi/(j0 sqrt(2N)),

evaluated in the single-excitation sector (the noise conserves excitation
number, which is what keeps N = 500 with thousands of trials cheap).

How a complex F is folded into a scalar infidelity matters: 1 - |F| is
second order in the noise amplitude, while |1 - F| keeps the first-order
phase error and is the quantity that scales linearly in sigma and as
1/sqrt(N).  ``run_mc`` therefore records every definition per trial and
reports whichever one the caller tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .exceptions import BasisError, InvalidSizeError
from .propagator import evolve_source, minimum_transfer_time
from .spin_model import (
    SINGLE_EXCITATION,
    SectorMatrix,
    SpinModel,
    hamiltonian_builder,
    project_single_excitation,
    require_positive_j0,
)

# per-trial scalar infidelities derived from the complex overlap F
INFIDELITY_DEFINITIONS = {
    "one_minus_abs_overlap": lambda f: 1.0 - np.abs(f),
    "abs_one_minus_overlap": lambda f: np.abs(1.0 - f),
    "one_minus_re_overlap": lambda f: 1.0 - f.real,
    "one_minus_abs_sq_overlap": lambda f: 1.0 - np.abs(f) ** 2,
}
DEFAULT_DEFINITION = "one_minus_abs_overlap"


@dataclass(frozen=True)
class NoiseConfig:
    """One Monte Carlo configuration; ``seed`` fixes the whole ensemble."""

    n: int
    j0: float = 1.0
    sigma_c: float = 0.0
    sigma_f: float = 0.0
    trials: int = 1
    seed: int = 0
    hamiltonian: str = "opt"

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidSizeError(f"trials must be >= 1, got {self.trials}")
        for name in ("sigma_c", "sigma_f"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidSizeError(f"{name} must be finite and nonnegative, got {value}")
        require_positive_j0(self.j0)
        hamiltonian_builder(self.hamiltonian)

    def base_model(self) -> SpinModel:
        return hamiltonian_builder(self.hamiltonian)(self.n, self.j0)

    def transfer_time(self) -> float:
        return minimum_transfer_time(self.n, self.j0)


@dataclass(frozen=True)
class NoiseTrialStats:
    """Ensemble summary; ``all_means`` records every infidelity definition."""

    mean_infidelity: float
    std_error: float
    trials: int
    seed: int
    infidelity_definition: str
    all_means: dict[str, tuple[float, float]]

    def __post_init__(self):
        if not 0.0 <= self.mean_infidelity <= 2.0:
            raise InvalidSizeError(
                f"mean infidelity out of range: {self.mean_infidelity}")
        if self.std_error < 0:
            raise InvalidSizeError("standard error must be nonnegative")


def _upper_flat_index(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an n x n matrix, row major."""
    rows, cols = np.triu_indices(n, 1)
    return rows * n + cols


def _field_noise_diag(n: int, sigma_f: float, key: int):
    """Diagonal of eps1 sz_1 + epsN sz_N in the single-excitation sector."""
    if sigma_f == 0:
        return np.zeros(n), 0.0, 0.0
    e1, en = sigma_f * rng.normals(key, 0, 2)
    diag = np.full(n, e1 + en)  # both edge qubits in |0>
    diag[0] = -e1 + en
    diag[-1] = e1 - en
    return diag, float(e1), float(en)


def _noisy_matrix(cfg: NoiseConfig, base: np.ndarray, trial: int, upper: np.ndarray):
    """Real noisy matrix of one trial and its field shifts (eps1, epsN).

    ``base`` is the real single-excitation matrix of ``cfg.base_model()``
    and ``upper`` is ``_upper_flat_index(cfg.n)``: one N(0, sigma_c) draw
    per unordered pair fills the upper triangle of a zero matrix, which is
    added to ``base`` with its transpose.
    """
    n = cfg.n
    pairs = np.zeros(n * n)
    if cfg.sigma_c > 0:
        key = rng.derive_key(cfg.seed, trial, 0)
        pairs[upper] = cfg.sigma_c * rng.normals(key, 0, upper.size)
    pairs = pairs.reshape(n, n)
    h = base + pairs + pairs.T
    diag, e1, en = _field_noise_diag(n, cfg.sigma_f, rng.derive_key(cfg.seed, trial, 1))
    h[np.diag_indices(n)] += diag
    return h, e1, en


def sample_noisy_hamiltonian(cfg: NoiseConfig, trial: int = 0) -> SectorMatrix:
    """Single-excitation matrix of one noisy realization.

    Trial ``trial`` owns the substreams (seed, trial, 0) for pair noise and
    (seed, trial, 1) for field noise, so growing the trial count never
    reshuffles earlier trials.
    """
    base = project_single_excitation(cfg.base_model())
    h, e1, en = _noisy_matrix(cfg, base.entries.real, trial, _upper_flat_index(cfg.n))
    return SectorMatrix(basis_tag=SINGLE_EXCITATION, entries=h,
                        vacuum_phase_rate=base.vacuum_phase_rate + e1 + en)


def trial_fidelity(noisy: SectorMatrix, base: SectorMatrix, t: float) -> complex:
    """Complex overlap <phi_1| e^{+i base t} e^{-i noisy t} |phi_1>."""
    if noisy.dim != base.dim:
        raise BasisError(f"dimension mismatch: {noisy.dim} vs {base.dim}")
    if np.array_equal(noisy.entries, base.entries):
        return 1.0 + 0.0j  # exact by unitarity, bypassing roundoff
    ideal, _ = evolve_source(base.entries, t)
    evolved, _ = evolve_source(noisy.entries, t)
    return complex(np.vdot(ideal, evolved))


def trial_overlaps(cfg: NoiseConfig) -> np.ndarray:
    """Complex overlap F for every trial of the ensemble."""
    if cfg.sigma_c == 0.0 and cfg.sigma_f == 0.0:
        return np.ones(cfg.trials, dtype=complex)  # noiseless protocol is exact
    # builders are real symmetric
    base = np.ascontiguousarray(project_single_excitation(cfg.base_model()).entries.real)
    t = cfg.transfer_time()
    ideal, _ = evolve_source(base, t)
    upper = _upper_flat_index(cfg.n)
    out = np.empty(cfg.trials, dtype=complex)
    for trial in range(cfg.trials):
        h, _, _ = _noisy_matrix(cfg, base, trial, upper)
        out[trial] = np.vdot(ideal, evolve_source(h, t)[0])
    return out


def run_mc(cfg: NoiseConfig, definition: str = DEFAULT_DEFINITION) -> NoiseTrialStats:
    """Seeded ensemble average of the transfer infidelity.

    Deterministic given ``cfg.seed``; trials use independent substreams and
    statistics are order-independent sums.
    """
    if definition not in INFIDELITY_DEFINITIONS:
        raise InvalidSizeError(f"unknown infidelity definition {definition!r}")
    overlaps = trial_overlaps(cfg)
    all_means: dict[str, tuple[float, float]] = {}
    for name, fn in INFIDELITY_DEFINITIONS.items():
        vals = fn(overlaps)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
        all_means[name] = (mean, se)
    mean, se = all_means[definition]
    return NoiseTrialStats(mean_infidelity=mean, std_error=se, trials=cfg.trials,
                           seed=cfg.seed, infidelity_definition=definition,
                           all_means=all_means)


def first_order_infidelity(eps1: float, epsN: float, n: int, j0: float) -> float:
    """Leading-order field-noise infidelity |(eps1 - epsN) t| at the transfer time."""
    return abs((eps1 - epsN) * minimum_transfer_time(n, j0))


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit summary; ``params`` layout depends on the model."""

    model: str
    params: tuple[float, ...]
    r2: float
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {"model": self.model, "params": list(self.params), "r2": self.r2}


def _r_squared(y: np.ndarray, yhat: np.ndarray) -> float:
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_power_law(points) -> FitResult:
    """Fit y = prefactor * x^exponent by least squares in log-log coordinates.

    Returns params = (exponent, prefactor).  Requires >= 3 points with
    strictly positive coordinates.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise InvalidSizeError(f"power-law fit needs >= 3 points, got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise InvalidSizeError("power-law fit needs positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if np.ptp(lx) == 0.0:
        return FitResult(model="power", params=(0.0, float(np.exp(ly.mean()))),
                         r2=0.0, degenerate=True)
    exponent, logpre = np.polyfit(lx, ly, 1)
    r2 = _r_squared(ly, exponent * lx + logpre)
    return FitResult(model="power", params=(float(exponent), float(np.exp(logpre))), r2=r2)


def fit_linear(points) -> FitResult:
    """Ordinary least squares y = slope * x + intercept; params = (slope, intercept)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise InvalidSizeError(f"linear fit needs >= 3 points, got {len(pts)}")
    x = np.array([p for p, _ in pts])
    y = np.array([q for _, q in pts])
    if np.ptp(x) == 0.0:
        return FitResult(model="linear", params=(0.0, float(y.mean())), r2=0.0,
                         degenerate=True)
    slope, intercept = np.polyfit(x, y, 1)
    r2 = _r_squared(y, slope * x + intercept)
    return FitResult(model="linear", params=(float(slope), float(intercept)), r2=r2)
