"""The public surface, pinned: adding or deleting a name or a record field is a
deliberate edit here."""

import dataclasses
import types

import sglap
from sglap import balance, bounds, harness, sgraph, spectra

BALANCE = ["BalanceInfo", "SwitchingVerdict", "balance_info", "induced_sign_subgraph",
           "is_connected", "laplacian_rank", "switch", "switching_equivalent"]
BOUNDS = ["BoundEvaluation", "BoundResult", "DEFAULT_TOL",
          "InternalInconsistencyError", "LOWER", "SIGNED_CATALOG", "UNSIGNED_CATALOG", "UPPER",
          "classic_bounds", "evaluate_all", "lb_interlacing", "lb_net_cubic", "lb_net_mean",
          "lb_net_sq", "lb_trace_cubic_a", "lb_trace_cubic_b", "lb_trace_sq",
          "sandwich_violations", "ub_all_negative", "ub_rank_trace", "ub_wang_edge",
          "ub_wang_global", "unsigned_corollaries"]
HARNESS = ["CONNECTIVITY_CAP", "GenerationError", "GeneratorConfig", "RANK_TOL", "SplitMix64",
           "VerificationReport", "Violation", "format_value", "generate", "render_table",
           "report", "verify"]
SGRAPH = ["DegreeProfile", "GraphFormatError", "MAX_VERTICES", "SignedGraph",
          "TriangleStats", "degree_profile", "parse_signed_graph", "serialize_signed_graph",
          "triangle_stats"]
SPECTRA = ["eigenvalues", "laplacian", "rayleigh_moment", "sign_all",
           "spectral_radius_laplacian", "trace_moment"]
# The package re-exports every module's names except these.
NOT_REEXPORTED = {"LOWER", "UPPER", "MAX_VERTICES", "format_value", "render_table"}


def test_public_names():
    modules = {balance: BALANCE, bounds: BOUNDS, harness: HARNESS, sgraph: SGRAPH,
               spectra: SPECTRA}
    for module, names in modules.items():
        assert sorted(module.__all__) == names, module.__name__
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    package = sorted(name for name in dir(sglap) if not name.startswith("_")
                     and not isinstance(getattr(sglap, name), types.ModuleType))
    want = sorted(set().union(*modules.values()) - NOT_REEXPORTED)
    assert package == want


# Fields of the public records, in declaration order (the constructor's
# positional order).
RECORD_FIELDS = {
    sgraph.DegreeProfile: ["d", "d_neg", "nds", "s1", "s2", "s3", "max_deg",
                           "edge_deg_min", "edge_deg_max"],
    sgraph.TriangleStats: ["t", "t_pos", "t_neg", "t_net"],
    balance.BalanceInfo: ["component_count", "balanced_count", "component_labels",
                          "component_balanced", "certificate"],
    bounds.BoundResult: ["bound_id", "direction", "applicable", "guard_reason", "value"],
    bounds.BoundEvaluation: ["results", "spectrum"],
}


def test_record_fields():
    for record, names in RECORD_FIELDS.items():
        assert [f.name for f in dataclasses.fields(record)] == names, record.__name__
