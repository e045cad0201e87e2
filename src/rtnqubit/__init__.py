"""Qubit dynamics under random telegraph noise.

A small numpy toolkit for a single qubit coupled to two-state (telegraph)
noise along the three Pauli axes:

* closed-form Bloch relaxation profiles of the resulting exponential
  memory-kernel master equation (:mod:`rtnqubit.telegraph`);
* a generic scalar Volterra quadrature and Laplace-pole analysis for
  memory kernels (:mod:`rtnqubit.kernels`);
* complete-positivity decision via composite-map eigenvalues, with
  phase-boundary search (:mod:`rtnqubit.positivity`);
* Kraus representations and the dephasing channel
  (:mod:`rtnqubit.channels`);
* an exact stochastic-trajectory Monte Carlo oracle
  (:mod:`rtnqubit.montecarlo`);
* a batch CLI emitting CSV/JSON tables (:mod:`rtnqubit.cli`).

All library functions are pure and operate on immutable inputs.  The
package needs only numpy; only the test suite needs scipy.
"""

from .channels import (
    KrausSet,
    NotCompletelyPositiveError,
    apply_channel,
    dephasing_steady_state,
    kraus_from_params,
)
from .kernels import (
    ExponentialKernel,
    NumericalBlowupError,
    SampledKernel,
    ScalarEvolution,
    exponential_kernel_poles,
    solve_volterra,
)
from .linalg import (
    NotAStateError,
    bell_projector,
    bloch_to_density,
    density_to_bloch,
    hermitian_eigenvalues,
    is_density_matrix,
    pauli,
)
from .montecarlo import (
    EnsembleResult,
    TelegraphPath,
    ensemble_average,
    evolve_trajectory,
    sample_path,
    signal_samples,
    trajectory_rng,
)
from .positivity import (
    CP_TOLERANCE,
    MU_STAR_BOUND,
    CpVerdict,
    CpWitness,
    choi_matrix,
    critical_flip_parameter,
    is_cp,
    markov_cp_check,
    scan_horizon,
    sufficient_condition,
    xi,
)
from .telegraph import (
    ModelParams,
    Regime,
    classify_regime,
    damping_spectrum,
    markov_propagate,
    markov_rates,
    propagate,
    propagate_time,
    relaxation_profile,
    relaxation_profiles,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg
    "NotAStateError",
    "pauli",
    "bloch_to_density",
    "density_to_bloch",
    "hermitian_eigenvalues",
    "bell_projector",
    "is_density_matrix",
    # telegraph
    "ModelParams",
    "Regime",
    "damping_spectrum",
    "classify_regime",
    "relaxation_profile",
    "relaxation_profiles",
    "propagate",
    "propagate_time",
    "markov_propagate",
    "markov_rates",
    # kernels
    "ExponentialKernel",
    "SampledKernel",
    "ScalarEvolution",
    "NumericalBlowupError",
    "exponential_kernel_poles",
    "solve_volterra",
    # positivity
    "CP_TOLERANCE",
    "MU_STAR_BOUND",
    "CpVerdict",
    "CpWitness",
    "xi",
    "choi_matrix",
    "scan_horizon",
    "is_cp",
    "critical_flip_parameter",
    "sufficient_condition",
    "markov_cp_check",
    # channels
    "KrausSet",
    "NotCompletelyPositiveError",
    "kraus_from_params",
    "apply_channel",
    "dephasing_steady_state",
    # montecarlo
    "TelegraphPath",
    "EnsembleResult",
    "sample_path",
    "evolve_trajectory",
    "ensemble_average",
    "signal_samples",
    "trajectory_rng",
]
