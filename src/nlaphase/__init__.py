"""Phase estimation of coherent states with a probabilistic noiseless linear amplifier.

Numerical workbench covering the heralded amplifier as a two-outcome measurement,
branch quantum Fisher information, the optimal local observable and its
maximum-likelihood estimators, seeded Monte Carlo precision experiments, and the
abstention cost model.  Each module's `__all__` declares its public names, and
the package re-exports them.
"""

__version__ = "0.2.0"

from . import cost, errors, estimator, fisher, fock, kernels, montecarlo, nla
from .cost import *
from .estimator import *
from .fisher import *
from .fock import *
from .kernels import *
from .montecarlo import *
from .nla import *

__all__ = [
    "__version__",
    "errors",
    *fock.__all__,
    *nla.__all__,
    *fisher.__all__,
    *estimator.__all__,
    *montecarlo.__all__,
    *cost.__all__,
    *kernels.__all__,
]
