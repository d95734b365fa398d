"""The public surface, pinned: adding or deleting a name or a record field is a
deliberate edit here."""

import dataclasses
import types

import sglap
from sglap import balance, bounds, harness, sgraph, spectra

BALANCE = ["BalanceInfo", "SwitchingVerdict", "balance_info", "is_connected",
           "laplacian_rank", "switch", "switching_equivalent"]
BOUNDS = ["BoundEvaluation", "BoundResult", "DEFAULT_TOL",
          "InternalInconsistencyError", "SIGNED_CATALOG", "UNSIGNED_CATALOG",
          "classic_bounds", "evaluate_all", "lb_interlacing", "lb_net_cubic", "lb_net_mean",
          "lb_net_sq", "lb_trace_cubic_a", "lb_trace_cubic_b", "lb_trace_sq",
          "sandwich_violations", "ub_all_negative", "ub_rank_trace", "ub_wang_edge",
          "ub_wang_global", "unsigned_corollaries"]
HARNESS = ["CONNECTIVITY_CAP", "GenerationError", "GeneratorConfig", "RANK_TOL", "SplitMix64",
           "VerificationReport", "Violation", "generate", "report", "verify"]
SGRAPH = ["DegreeProfile", "GraphFormatError", "SignedGraph",
          "TriangleStats", "degree_profile", "parse_signed_graph", "serialize_signed_graph",
          "triangle_stats"]
SPECTRA = ["eigenvalues", "laplacian", "power_traces", "rayleigh_moment", "sign_all",
           "trace_moment"]
MODULES = {balance: BALANCE, bounds: BOUNDS, harness: HARNESS, sgraph: SGRAPH,
           spectra: SPECTRA}
# Public names reached only by module path.
MODULE_ONLY = {bounds: ["LOWER", "UPPER"],
               harness: ["MAX_GENERATED_VERTICES", "format_value", "render_table"],
               sgraph: ["MAX_VERTICES", "edge_arrays"]}


def test_public_names():
    for module, names in MODULES.items():
        assert sorted(module.__all__) == names, module.__name__
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    package = sorted(name for name in dir(sglap) if not name.startswith("_")
                     and not isinstance(getattr(sglap, name), types.ModuleType))
    assert package == sorted(set().union(*MODULES.values()))


def test_star_imports_do_not_shadow():
    # The package star-imports every module, so a name listed twice would
    # silently resolve to whichever module comes last.
    seen = set()
    for module in MODULES:
        assert seen.isdisjoint(module.__all__), module.__name__
        seen.update(module.__all__)
        for name in module.__all__:
            assert getattr(sglap, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_module_only_names():
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert hasattr(module, name) and not hasattr(sglap, name), name


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
