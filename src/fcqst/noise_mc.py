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

What depends only on (hamiltonian, n, j0) is built once and cached, read
only: the ideal column exp(-i H_base t)|phi_1>, the flat positions of the
strict upper triangle and of its mirror, and the base matrix's values
there and on the diagonal.  ``trial_overlaps`` and
``sample_noisy_hamiltonian`` both read that cache, which keeps only the
latest configuration (3 MB at n = 500), so a sweep over sigma_c and
sigma_f at one size builds the base model once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .exceptions import InvalidSizeError
from .propagator import evolve_source, minimum_transfer_time
from .spin_model import (
    SINGLE_EXCITATION,
    SectorMatrix,
    SpinModel,
    hamiltonian_builder,
    project_single_excitation,
    require_integer,
    require_transfer_size,
)
from .workers import run_parallel, usable_workers

# per-trial scalar infidelities derived from the complex overlap F
INFIDELITY_DEFINITIONS = {
    "one_minus_abs_overlap": lambda f: 1.0 - np.abs(f),
    "abs_one_minus_overlap": lambda f: np.abs(1.0 - f),
    "one_minus_re_overlap": lambda f: 1.0 - f.real,
    "one_minus_abs_sq_overlap": lambda f: 1.0 - np.abs(f) ** 2,
}
DEFAULT_DEFINITION = "one_minus_abs_overlap"

# Pair amplitudes drawn per rng call: bounds each worker's temporaries to
# about 1.5 MB whatever n is.
PAIR_BLOCK = 65536
# Above this size the trials of an ensemble run on several threads; up to
# it a second worker gains too little to pay for its hand-offs.  Two workers
# over one, 200 trials, one BLAS thread, 2-CPU Xeon: 1.23 at n = 128, 0.98
# at 192, 0.75 at 256 and 0.72 at 320.
PARALLEL_MIN_N = 256


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
        require_integer(self.seed, "seed")
        if require_integer(self.trials, "trials") < 1:
            raise InvalidSizeError(f"trials must be >= 1, got {self.trials}")
        for name in ("sigma_c", "sigma_f"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidSizeError(f"{name} must be finite and nonnegative, got {value}")
        require_transfer_size(self.n, self.j0)
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


def _field_noise_diag(n: int, sigma_f: float, key: int):
    """Diagonal of eps1 sz_1 + epsN sz_N in the single-excitation sector."""
    if sigma_f == 0:
        return np.zeros(n), 0.0, 0.0
    e1, en = sigma_f * rng.normals(key, 0, 2)
    diag = np.full(n, e1 + en)  # both edge qubits in |0>
    diag[0] = -e1 + en
    diag[-1] = e1 - en
    return diag, float(e1), float(en)


@dataclass(frozen=True, eq=False)
class _EnsembleInputs:
    """Read-only inputs that every noisy matrix of one (hamiltonian, n, j0) shares.

    ``ideal`` is exp(-i H_base t)|phi_1> for the real, exactly symmetric
    single-excitation matrix H_base of the base model.  ``upper`` holds the
    flat positions of H_base's strict upper triangle, row major, and
    ``lower`` those of their mirror entries; ``base_upper`` and
    ``base_diag`` are H_base's values there and on the diagonal.
    """

    vacuum_phase_rate: float
    ideal: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    base_upper: np.ndarray
    base_diag: np.ndarray

    def fill(self, out: np.ndarray, cfg: NoiseConfig, trial: int) -> tuple[float, float]:
        """Overwrite every entry of the n x n array ``out`` with trial ``trial`` of cfg; return (eps1, epsN).

        Entry (i, j) and (j, i) of the off-diagonal get base_ij + sigma_c z_ij,
        where trial k draws one N(0, 1) z per unordered pair from substream
        (seed, k, 0) in the order of ``upper``.  The diagonal gets base_ii
        plus the field shifts drawn from (seed, k, 1).
        """
        flat = out.reshape(-1)
        if cfg.sigma_c > 0:
            key = rng.derive_key(cfg.seed, trial, 0)
            for lo in range(0, self.upper.size, PAIR_BLOCK):
                hi = min(lo + PAIR_BLOCK, self.upper.size)
                pairs = rng.normals(key, lo, hi - lo)
                pairs *= cfg.sigma_c
                pairs += self.base_upper[lo:hi]
                flat[self.upper[lo:hi]] = pairs
                flat[self.lower[lo:hi]] = pairs
        else:
            flat[self.upper] = self.base_upper
            flat[self.lower] = self.base_upper
        diag, e1, en = _field_noise_diag(cfg.n, cfg.sigma_f, rng.derive_key(cfg.seed, trial, 1))
        np.add(self.base_diag, diag, out=flat[::cfg.n + 1])
        return e1, en


@functools.lru_cache(maxsize=1)
def _ensemble_inputs(builder, n: int, j0: float) -> _EnsembleInputs:
    """The inputs of ``builder(n, j0)``'s ensembles, built once for the latest configuration."""
    base = project_single_excitation(builder(n, j0))
    h = np.ascontiguousarray(base.entries.real)  # builders are real symmetric
    rows, cols = np.triu_indices(n, 1)
    upper = rows * n + cols
    arrays = {
        "ideal": evolve_source(h, minimum_transfer_time(n, j0))[0],
        "upper": upper,
        "lower": cols * n + rows,
        # "+ 0.0" turns a -0.0 entry into +0.0, as adding a zero noise term does
        "base_upper": h.ravel()[upper] + 0.0,
        "base_diag": np.diag(h) + 0.0,
    }
    for a in arrays.values():
        a.flags.writeable = False
    return _EnsembleInputs(vacuum_phase_rate=base.vacuum_phase_rate, **arrays)


def _inputs_of(cfg: NoiseConfig) -> _EnsembleInputs:
    return _ensemble_inputs(hamiltonian_builder(cfg.hamiltonian), cfg.n, cfg.j0)


def sample_noisy_hamiltonian(cfg: NoiseConfig, trial: int = 0) -> SectorMatrix:
    """Single-excitation matrix of one noisy realization.

    Trial ``trial`` owns the substreams (seed, trial, 0) for pair noise and
    (seed, trial, 1) for field noise, so growing the trial count never
    reshuffles earlier trials.
    """
    inputs = _inputs_of(cfg)
    h = np.empty((cfg.n, cfg.n))
    e1, en = inputs.fill(h, cfg, trial)
    return SectorMatrix(basis_tag=SINGLE_EXCITATION, entries=h,
                        vacuum_phase_rate=inputs.vacuum_phase_rate + e1 + en)


def _trial_workers(cfg: NoiseConfig) -> int:
    """Threads for cfg's trials: serial up to ``PARALLEL_MIN_N``, else ``usable_workers``."""
    return usable_workers(cfg.trials) if cfg.n > PARALLEL_MIN_N else 1


def trial_overlaps(cfg: NoiseConfig) -> np.ndarray:
    """Complex overlap F for every trial of the ensemble.

    The trials run on ``_trial_workers(cfg)`` threads, each refilling its
    own n x n buffer; every trial is computed alone from its own
    substreams, so the result does not depend on the worker count.
    """
    if cfg.sigma_c == 0.0 and cfg.sigma_f == 0.0:
        return np.ones(cfg.trials, dtype=complex)  # noiseless protocol is exact
    inputs = _inputs_of(cfg)
    t = cfg.transfer_time()
    out = np.empty(cfg.trials, dtype=complex)

    def run_trial(h, trial):
        inputs.fill(h, cfg, trial)
        out[trial] = np.vdot(inputs.ideal, evolve_source(h, t)[0])

    run_parallel(cfg.trials, _trial_workers(cfg), run_trial, lambda: np.empty((cfg.n, cfg.n)))
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


def _fit_points(points, model: str) -> tuple[np.ndarray, np.ndarray]:
    """x and y arrays of >= 3 (x, y) points with finite coordinates."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise InvalidSizeError(f"{model} fit needs >= 3 points, got {len(pts)}")
    x, y = map(np.array, zip(*pts))
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidSizeError(f"{model} fit needs finite coordinates")
    return x, y


def fit_power_law(points) -> FitResult:
    """Fit y = prefactor * x^exponent by least squares in log-log coordinates.

    Returns params = (exponent, prefactor).  Requires >= 3 points with
    finite, strictly positive coordinates.
    """
    x, y = _fit_points(points, "power-law")
    if (x <= 0).any() or (y <= 0).any():
        raise InvalidSizeError("power-law fit needs positive coordinates")
    line = fit_linear(zip(np.log(x), np.log(y)))
    exponent, logpre = line.params
    return FitResult(model="power", params=(exponent, float(np.exp(logpre))), r2=line.r2,
                     degenerate=line.degenerate)


def fit_linear(points) -> FitResult:
    """Ordinary least squares y = slope * x + intercept; params = (slope, intercept).

    Requires >= 3 points with finite coordinates.
    """
    x, y = _fit_points(points, "linear")
    if np.ptp(x) == 0.0:
        return FitResult(model="linear", params=(0.0, float(y.mean())), r2=0.0,
                         degenerate=True)
    slope, intercept = np.polyfit(x, y, 1)
    r2 = _r_squared(y, slope * x + intercept)
    return FitResult(model="linear", params=(float(slope), float(intercept)), r2=r2)
