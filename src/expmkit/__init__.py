"""Taylor-based dense matrix exponential with explicit product counting.

The package provides the dense kernel (:mod:`expmkit.matrix`), the
polynomial evaluators (:mod:`expmkit.poly`), dynamic order/scale
selection (:mod:`expmkit.select`), the exponential drivers
(:mod:`expmkit.engine`), an extended-precision reference
(:mod:`expmkit.oracle`) and the benchmark harness
(:mod:`expmkit.bench`).
"""

from .matrix import (
    Matrix,
    MatrixError,
    MulLedger,
    NonFiniteError,
    check_finite,
    format_matrix,
    frobenius_norm,
    identity,
    load_matrix,
    mat_mul,
    one_norm,
    parse_matrix,
    save_matrix,
    scale_pow2,
    zeros,
)
from .poly import (
    CoeffSet,
    EXP_COEFFS,
    MAX_ORDER,
    PsShape,
    eval_low_order,
    eval_t8,
    eval_t15p,
    phi1_coeffs,
    ps_eval,
    ps_shape,
    sastre_budget,
    taylor_coeffs_exp,
)
from .select import (
    EvalPlan,
    LOWRANK_TABLES,
    MAX_SCALING,
    PS_TABLES,
    SASTRE_TABLES,
    SCHEME_BASELINE,
    SCHEME_LOWRANK,
    SCHEME_PS,
    SCHEME_SASTRE,
    SelectionTables,
    ToleranceError,
    UNIT_ROUNDOFF,
    select_ps,
    select_sastre,
)
from .engine import (
    ExpmResult,
    LOWRANK_ORDERS,
    LowRankOrderError,
    LowRankPair,
    expm,
    expm_baseline,
    expm_lowrank,
    squaring,
)
from .oracle import expm_reference, poly_reference, relative_error
from .bench import (
    BenchRecord,
    ConfigError,
    GeneratorSpec,
    KINDS,
    ProfileTable,
    SuiteConfig,
    default_suite_config,
    emit_reports,
    gen_matrix,
    performance_profile,
    read_records_csv,
    run_suite,
    summarize,
    write_records_csv,
)

__version__ = "0.1.0"
