"""Giant-component fluctuations of dynamic rank-one inhomogeneous random graphs.

Deterministic supercritical curves and the limit Gaussian covariance, two
coupled simulators (breadth-first-walk encoding and direct dynamic graph),
samplers for the limit process, and a Monte Carlo harness that checks the
simulators against the theory.
"""

import os

# BLAS on one thread, set before the first submodule loads numpy.  The
# package's largest BLAS calls are one 2m x 2m Cholesky and one
# (draws x 2m)(2m x 2m) product; from 128 rows up, OpenBLAS threads change
# the factor's bits, so outputs would depend on the machine's cores, and the
# threads never paid for themselves.  ``setdefault`` keeps a caller's count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .graph_oracle import (
    DynamicGraphRealization,
    giant_path,
    simulate_dynamic_graph,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    run_convergence_study,
    run_experiment,
    run_fclt,
    run_oracle_compare,
)
from .limit_sampler import (
    psi_cov_matrix,
    sample_psi_pair,
    sample_x_path,
)
from .theory import (
    ConvergenceError,
    ErClosedForms,
    LimitCovariance,
    SupercriticalCurves,
    er_closed_forms,
    lambda_crit,
    supercritical_curves,
    theta,
    x_cov,
)
from .walk import (
    WalkRealization,
    all_excursions,
    giant_results,
    sample_clocks,
    walk_value,
)
from .weights import (
    WeightModel,
    WeightVector,
    mixed_moment,
    phi,
    weight_vector,
)

__version__ = "0.1.0"
