import subprocess
import sys
from pathlib import Path

import rtnqubit


def test_import_loads_no_scipy():
    # only the test suite needs scipy; the package runs on numpy alone
    src = str(Path(rtnqubit.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rtnqubit, rtnqubit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_public_names():
    # each module declares its names once; the package re-exports exactly these
    expected = {
        "__version__",
        # linalg
        "NotAStateError", "pauli", "bloch_to_density", "density_to_bloch",
        "hermitian_eigenvalues", "bell_projector", "is_density_matrix",
        # telegraph
        "ModelParams", "Regime", "damping_spectrum", "classify_regime",
        "relaxation_profile", "relaxation_profiles", "propagate", "propagate_time",
        "markov_propagate", "markov_rates",
        # kernels
        "ExponentialKernel", "SampledKernel", "ScalarEvolution", "NumericalBlowupError",
        "exponential_kernel_poles", "solve_volterra",
        # positivity
        "CP_TOLERANCE", "MU_STAR_BOUND", "CpVerdict", "CpWitness", "xi", "choi_matrix",
        "scan_horizon", "is_cp", "critical_flip_parameter", "sufficient_condition",
        "markov_cp_check",
        # channels
        "KrausSet", "NotCompletelyPositiveError", "kraus_from_params", "apply_channel",
        "dephasing_steady_state",
        # montecarlo
        "TelegraphPath", "EnsembleResult", "sample_path", "evolve_trajectory",
        "ensemble_average", "signal_samples", "trajectory_rng",
    }
    assert len(rtnqubit.__all__) == len(expected) == 47
    assert set(rtnqubit.__all__) == expected
    assert all(hasattr(rtnqubit, name) for name in expected)
    assert not hasattr(rtnqubit, "KRAUS_CLAMP")
    assert rtnqubit.channels.KRAUS_CLAMP == 1e-10
