"""Solution families of the nonlocal nonlinear eigenvalue problem
sigma V = b * f(b * V) on a periodic grid.

The solver maximizes P(V) = integral F(b*V) on the sphere (1/2)||V||^2 = K
by iterating the norm-preserving, energy-monotone improvement map
T(V) = mu(V) b*f(b*V); fixed points solve the eigenvalue equation with
sigma = 1/mu.  The asymptotics module verifies the analytic predictions for
tail decay rates, the shallow-water (small K) limit, and the high-energy
limit of singular nonlinearities.

Importing the package sets OPENBLAS_NUM_THREADS=1 unless it is already set,
before any submodule imports numpy, so that OpenBLAS starts no worker
threads: nleig makes no threaded BLAS call (grid.dot sums in chunks below
OpenBLAS's threading threshold).  A value set before the import is kept, and
a process that imported numpy first keeps the BLAS threads it started.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import (
    ComputationError,
    DomainBreachError,
    GridMismatchError,
    KernelAssumptionError,
    MonotonicityViolationError,
    NleigError,
    NonPositiveTailError,
    NumericalOverflowError,
    OddPointCountError,
    SymbolPoleError,
    UnderResolvedError,
    ZeroGradientError,
)
from .grid import (
    ConeReport,
    Grid,
    Profile,
    cone_check,
    inner_product,
    l2_norm,
    make_grid,
    require_same_grid,
    write_profile_csv,
)
from .kernels import (
    Kernel,
    KernelSpec,
    KernelValidationReport,
    gaussian_kernel,
    indicator_kernel,
    kernel_from_samples,
    kernel_spec_from_config,
    spectral_ode_kernel,
    two_bump_kernel,
    validate_kernel,
)
from .nonlinearity import (
    Nonlinearity,
    SuperlinearityReport,
    check_superlinearity,
    exp_nonlinearity,
    nonlinearity_from_config,
    nonlinearity_to_config,
    quadratic_nonlinearity,
    singular_nonlinearity,
)
from .functionals import eval_K, eval_P, eval_Q, grad_P
from .solver import (
    IterationTrace,
    Solution,
    SolverConfig,
    SweepEntry,
    UniquenessReport,
    attempt,
    improvement_step,
    save_solution,
    solution_to_dict,
    solve,
    sweep_K,
    uniqueness_probe,
)
from .asymptotics import (
    BlowUpBounded,
    DecayReport,
    FamilyResult,
    HighEnergyGridPolicy,
    HighEnergyRow,
    KdvGridPolicy,
    KdvRow,
    check_kdv_assumption,
    decay_rate_theory,
    decay_report,
    eta0_predicted,
    fit_tail_rate,
    high_energy_experiment,
    kdv_experiment,
    kdv_predicted_d0,
    kdv_profile,
    modified_kernel_ac,
)
