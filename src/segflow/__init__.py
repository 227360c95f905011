"""segflow: segment-process simulation and limit-theorem diagnostics.

Simulates path-dependent stochastic differential equations as segment-valued
Markov processes and empirically verifies their long-time statistics:
exponential mixing under a quasi-metric transport distance, the law of large
numbers for time averages, the central limit theorem with its variance
constant, and the law of the iterated logarithm for integer-time sums.
"""

__version__ = "0.1.0"

from .assumptions import (
    check_dissipativity,
    check_ellipticity,
    gaussian_pair_sampler,
    gaussian_segment_sampler,
)
from .errors import (
    CapacityError,
    ConfigError,
    EllipticityViolationError,
    EstimatorInconsistencyError,
    NumericBlowupError,
    SegflowError,
    ShapeError,
)
from .ergodic import RateFit, ergodicity_curve, sample_invariant
from .limits import (
    CenteredObservable,
    CorrectorConfig,
    DiscreteCorrectorConfig,
    clt_statistic,
    clt_test,
    corrector,
    lil_run,
    martingale_increments,
    phi_f,
    quadratic_variation,
    qv_lln_check,
    rescaled_path_nodes,
    slln_pathwise,
    slln_variance_decay,
    variance_D,
    vph_residual,
)
from .metric import EmpiricalMeasure, MetricParams, Observable, wasserstein
from .registry import build_model, build_observable, registry_list
from .rng import RngStream, derive_seed
from .segments import (
    ModelSpec,
    Segment,
    Trajectory,
    constant_segment,
    simulate,
)
from .semigroup import (
    ExpDecayKernel,
    IidChain,
    MonteCarloSemigroup,
)
