"""Time-optimal quantum state transfer on fully-connected qubit networks.

Library layout:

* ``spin_model``      -- N-qubit Hamiltonians and their excitation sectors
* ``effective3``      -- reduction to the 3-level transfer problem
* ``propagator``      -- exact evolution, fidelities, commutator signature
* ``brachistochrone`` -- multiplier machinery, case catalog, closed forms
* ``speed_search``    -- bounded pulse optimization and time bisection
* ``noise_mc``        -- static-disorder Monte Carlo and scaling fits
* ``workers``         -- the one thread runner and CPU/BLAS rule
* ``rng``             -- the keyed, counter-based generator of every draw
* ``cli``             -- the ``fcqst`` reproduction harness
"""

__version__ = "0.1.0"

from .brachistochrone import (
    CASE_TABLE,
    CaseSpec,
    QBMultipliers,
    ResidualReport,
    case_hamiltonian,
    case_minimum_time,
    case_stationary_solution,
    case_table_rows,
    case_unitary,
    qb_residuals,
    stationary_multipliers,
)
from .effective3 import (
    Effective3,
    TransferDecomposition,
    boundary_form_check,
    reduce_to_effective,
    to_interaction_picture,
)
from .noise_mc import (
    NoiseConfig,
    NoiseTrialStats,
    first_order_infidelity,
    fit_linear,
    fit_power_law,
    run_mc,
    sample_noisy_hamiltonian,
)
from .propagator import (
    evolve_constant,
    evolve_schedule,
    lr_commutator_check,
    minimum_transfer_time,
    transfer_fidelity,
)
from .reports import ConstraintReport, Violation
from .speed_search import (
    BisectionResult,
    PulseParams,
    SearchResult,
    min_time_bisection,
    optimize_pulse,
)
from .spin_model import (
    SectorMatrix,
    SpinModel,
    build_h_opt,
    build_h_opt_prime,
    check_coupling_bounds,
    project_full_space,
    project_single_excitation,
)
