"""sglap: signed-graph Laplacian spectra, eigenvalue bounds, and verification."""

from .balance import (
    BalanceInfo,
    SwitchingVerdict,
    balance_info,
    induced_sign_subgraph,
    is_connected,
    laplacian_rank,
    switch,
    switching_equivalent,
)
from .bounds import (
    DEFAULT_TOL,
    SIGNED_CATALOG,
    UNSIGNED_CATALOG,
    BoundEvaluation,
    BoundResult,
    InternalInconsistencyError,
    classic_bounds,
    evaluate_all,
    lb_interlacing,
    lb_net_cubic,
    lb_net_mean,
    lb_net_sq,
    lb_trace_cubic_a,
    lb_trace_cubic_b,
    lb_trace_sq,
    sandwich_violations,
    ub_all_negative,
    ub_rank_trace,
    ub_wang_edge,
    ub_wang_global,
    unsigned_corollaries,
)
from .harness import (
    CONNECTIVITY_CAP,
    RANK_TOL,
    GenerationError,
    GeneratorConfig,
    SplitMix64,
    VerificationReport,
    Violation,
    generate,
    report,
    verify,
)
from .sgraph import (
    DegreeProfile,
    GraphFormatError,
    SignedGraph,
    TriangleStats,
    degree_profile,
    parse_signed_graph,
    serialize_signed_graph,
    triangle_stats,
)
from .spectra import (
    eigenvalues,
    laplacian,
    rayleigh_moment,
    sign_all,
    spectral_radius_laplacian,
    trace_moment,
)

__version__ = "0.1.0"
