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

from . import channels, kernels, linalg, montecarlo, positivity, telegraph
from .channels import *
from .kernels import *
from .linalg import *
from .montecarlo import *
from .positivity import *
from .telegraph import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *linalg.__all__,
    *telegraph.__all__,
    *kernels.__all__,
    *positivity.__all__,
    *channels.__all__,
    *montecarlo.__all__,
]
