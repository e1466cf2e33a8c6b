"""Giant-component fluctuations of dynamic rank-one inhomogeneous random graphs.

Deterministic supercritical curves and the limit Gaussian covariance, two
coupled simulators (breadth-first-walk encoding and direct dynamic graph),
samplers for the limit process, and a Monte Carlo harness that checks the
simulators against the theory.  Each public name is imported from its module
(``from giantflux.harness import run_fclt``); the package pins BLAS threads
and holds its version.
"""

import os

# BLAS on one thread, set before the first submodule loads numpy.  The
# package's largest BLAS calls are one 2m x 2m Cholesky and one
# (draws x 2m)(2m x 2m) product; from 128 rows up, OpenBLAS threads change
# the factor's bits, so outputs would depend on the machine's cores, and the
# threads never paid for themselves.  ``setdefault`` keeps a caller's count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
