"""goldbach3: circle-method computations for three-prime sums in progressions.

A numpy toolkit that evaluates, at desk scale and with independent
cross-checks, every concrete object in the circle-method treatment of

    p1 + p2 + p3 = N,    p_i = l_i (mod k_i),  gcd(k_i, l_i) = 1:

exact log-weighted representation counts (direct and FFT routes), the
singular series (Gauss-sum q-series and exact local-density product),
main and error terms, exponential sums over primes with exact grid
identities, the Farey dissection into major and minor arcs, kernel
integrals, and deterministic averaged error sweeps.
"""

from .arith import (
    PrimeTable,
    Progression,
    TripleInstance,
    chebyshev_theta,
    divisor_tau,
    divisor_tau_array,
    euler_phi,
    factorize,
    is_prime,
    moebius,
    padic_valuation,
    sieve_primes,
    triple,
)
from .arcs import (
    Arc,
    ArcPartition,
    I_integral,
    MinorIntegral,
    MinorStats,
    analytic_major_measure,
    build_partition,
    classify,
    classify_grid,
    major_measure,
    minor_statistics,
)
from .exceptions import (
    ArcOverlapError,
    BudgetExceededError,
    ConsistencyError,
    TableTooSmallError,
)
from .expsum import (
    J_integral,
    KernelCoefficients,
    WeightSpec,
    coefficient_extract,
    coefficient_extract_count,
    eval_K,
    eval_K_grid,
    eval_S,
    eval_S_grid,
    grid_count,
    grid_length,
    kernel_coefficients,
    weight_coefficients,
)
from .repcount import (
    DIRECT_CAP,
    WeightedCount,
    count_convolution,
    count_convolution_targets,
    count_direct,
)
from .reports import validate_cli_report
from .singular import (
    DEFAULT_TRUNCATION,
    SingularSeriesCache,
    SingularSeriesValue,
    classical_ternary_qsum,
    classical_ternary_series,
    gauss_sum_G,
    local_density,
    local_density_factor,
    main_term,
    singular_series_product,
    singular_series_qsum,
)
from .sweeps import (
    DEFAULT_BUDGET,
    DeltaResult,
    EstarRow,
    SweepConfig,
    SweepReport,
    SweepRow,
    delta,
    delta_targets,
    estimate_cells,
    sweep_E,
    sweep_Estar,
)

__version__ = "0.1.0"
