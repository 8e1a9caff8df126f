"""Per-layer metrics of a traced run, computed from its spans.

Times and counts are per pass over the workload's operations.  Every
metric is reported on every workload; a layer a workload never reaches
reads 0 there.
"""

# (name, unit, better); the same list is BENCHMARK.json's per_layer
PER_LAYER = (
    ("curvature.is_ricci_negative.calls", "count", "lower"),
    ("curvature.is_ricci_negative.self_s", "s", "lower"),
    ("curvature.is_ricci_negative.per_call_us", "us", "lower"),
    ("curvature.koszul_oracle.self_s", "s", "lower"),
    ("curvature.transport_metric.self_s", "s", "lower"),
    ("curvature.extension_bracket.self_s", "s", "lower"),
    ("certify.search_rn_metric.self_s", "s", "lower"),
    ("certify.evals_per_search", "count", "lower"),
    ("certify.certify_srn_nice.self_s", "s", "lower"),
    ("certify.certify_srn_sampled.self_s", "s", "lower"),
    ("brackets.act.calls", "count", "lower"),
    ("brackets.act.self_s", "s", "lower"),
    ("brackets.Bracket.tensor.self_s", "s", "lower"),
    ("moment.orbit_sample.self_s", "s", "lower"),
    ("moment.steer_attempts", "count", "lower"),
    ("moment.points_kept", "count", "higher"),
    ("moment.steer_yield", "ratio", "higher"),
    ("moment.moment_map.calls", "count", "lower"),
    ("moment.moment_map.self_s", "s", "lower"),
    ("moment.acted_moment_matrix.calls", "count", "lower"),
    ("moment.acted_moment_matrix.self_s", "s", "lower"),
    ("moment.OrbitSample.verify.self_s", "s", "lower"),
    ("moment.nice_basis_check.calls", "count", "lower"),
    ("moment.nice_basis_check.self_s", "s", "lower"),
    ("exactlp.solve_lp.calls", "count", "lower"),
    ("exactlp.solve_lp.self_s", "s", "lower"),
    ("exactlp.solve_lp.rows_mean", "count", "lower"),
    ("cone.cone_membership.self_s", "s", "lower"),
    ("cone.cone_section.self_s", "s", "lower"),
    ("cone.halfspaces", "count", "lower"),
    ("hull.hrep_vertices.self_s", "s", "lower"),
    ("hull.exact_hull.self_s", "s", "lower"),
    ("derivations.diagonal_torus.calls", "count", "lower"),
    ("derivations.diagonal_torus.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("scipy.expm.self_s", "s", "lower"),
    ("scipy.logm.self_s", "s", "lower"),
    ("scipy.least_squares.self_s", "s", "lower"),
    ("scipy.linprog.self_s", "s", "lower"),
    ("trace.verdict_s", "s", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, passes, traced_pass_s, untraced_pass_s):
    """{metric: (value, unit)} from the spans of `passes` traced passes,
    given the verdict time of one traced and one untraced pass."""
    totals = tracer.layer_totals()

    def get(layer):
        calls, total, self_s, notes = totals.get(layer, (0, 0.0, 0.0, 0))
        return calls / passes, total / passes, self_s / passes, notes / passes

    values = {}
    for layer in {name.rsplit(".", 1)[0] for name, _, _ in PER_LAYER}:
        calls, _, self_s, _ = get(layer)
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    ric_calls, ric_total, _, _ = get("curvature.is_ricci_negative")
    values["curvature.is_ricci_negative.per_call_us"] = _ratio(ric_total, ric_calls) * 1e6
    searches = get("certify.search_rn_metric")[0]
    evals = tracer.calls_under("curvature.is_ricci_negative",
                               "certify.search_rn_metric") / passes
    values["certify.evals_per_search"] = _ratio(evals, searches)
    attempts = get("scipy.least_squares")[0]
    kept = get("moment.orbit_sample")[3]
    values["moment.steer_attempts"] = attempts
    values["moment.points_kept"] = kept
    values["moment.steer_yield"] = _ratio(kept, attempts)
    lp_calls, _, _, lp_rows = get("exactlp.solve_lp")
    values["exactlp.solve_lp.rows_mean"] = _ratio(lp_rows, lp_calls)
    values["cone.halfspaces"] = get("cone.cone_section")[3]
    values["trace.verdict_s"] = traced_pass_s
    # the share of verdict time spent in traced layers below the call
    # that each verdict makes, that is in every span but the outermost
    inner = sum(own for rec, own in zip(tracer.spans, tracer.self_times())
                if rec[1] >= 0) / passes
    values["trace.layer_share"] = _ratio(inner, traced_pass_s)
    values["trace.overhead"] = _ratio(traced_pass_s, untraced_pass_s) - 1.0
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
