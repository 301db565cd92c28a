"""Every metric the benchmark reports: unit, direction, and what it should move.

END_TO_END metrics are measured with tracing off; every time is scaled to
seconds on a free core by the reference kernel of `speed.py`.  PER_LAYER
metrics come from `--trace 1`; each names its layer (the `dowlingnest`
module whose functions the traced run wraps) and the end-to-end metric and
workload it should move, so that a later change can predict its effect by
name.
Per-layer metrics are reported on every workload; "should not move X"
marks a workload that bypasses the layer.
"""

END_TO_END = {
    # name: (unit, meaning)
    "setup_s": (
        "s",
        "import dowlingnest and load_instance every (instance, n) the workload "
        "uses; median of several set-ups in one process",
    ),
    "wall_s": ("s", "one pass over the workload's job list (summed job times); median over passes"),
    "route_s": (
        "s",
        "summed time of the jobs of the workload's own route, per pass; median "
        "over passes.  It is nested_route_s on subspace, forest_route_s on "
        "forest-deep and series_route_s on series-deep",
    ),
    "peak_rss_mb": ("MB", "peak resident memory of the benchmark process"),
}

_NESTED = "route_s (nested_route_s) on subspace"
_LATTICE = "wall_s (lattice_s) on subspace"
_FOREST = "route_s (forest_route_s) on forest-deep"
_SERIES = "route_s (series_route_s) and wall_s (series_emit_s) on series-deep"
_NOT_LINALG = "; should not move forest-deep or series-deep"
_NOT_SERIES = "; should not move subspace or forest-deep"

PER_LAYER = {
    # name: (unit, better, layer, what it should move)
    "load_instance.calls": ("count", "lower", "instancefile", "setup_s on every workload"),
    "load_instance.self_s": ("s", "lower", "instancefile", "setup_s on every workload, most on series-deep"),
    "enumerate_subgroups.self_s": ("s", "lower", "groups", _FOREST + " (s3)"),
    "subgroup_conj_classes.self_s": ("s", "lower", "groups", _FOREST + " (s3)"),
    "ConjClassPoset.leq.calls": ("count", "lower", "groups", _FOREST + " (s3)"),
    "Representation.fix.calls": ("count", "lower", "reps", _NESTED),
    "Representation.fix.self_s": ("s", "lower", "reps", _NESTED),
    "pointwise_stabilizer.calls": ("count", "lower", "reps", _NESTED),
    "pointwise_stabilizer.self_s": ("s", "lower", "reps", _NESTED),
    "rref.calls": ("count", "lower", "linalg", _NESTED + " and " + _LATTICE + _NOT_LINALG),
    "rref.self_s": ("s", "lower", "linalg", _NESTED + " and " + _LATTICE + _NOT_LINALG),
    "Subspace.intersect.calls": ("count", "lower", "linalg", _NESTED + " and " + _LATTICE + _NOT_LINALG),
    "Subspace.intersect.self_s": ("s", "lower", "linalg", _NESTED + " and " + _LATTICE + _NOT_LINALG),
    "Subspace.contains.calls": ("count", "lower", "linalg", _NESTED + " and " + _LATTICE + _NOT_LINALG),
    "Subspace.contains.self_s": ("s", "lower", "linalg", _NESTED + " and " + _LATTICE + _NOT_LINALG),
    "Subspace.contains_vector.calls": ("count", "lower", "linalg", _NESTED + " and " + _LATTICE + _NOT_LINALG),
    "closed_subgroups.self_s": ("s", "lower", "arrangement", _NESTED),
    "building_blocks.self_s": ("s", "lower", "arrangement", _NESTED),
    "blocks": ("count", "lower", "arrangement", _NESTED + " (size of the building set, fixed by the instances)"),
    "block_leq.calls": ("count", "lower", "arrangement", _NESTED),
    "block_leq.self_s": ("s", "lower", "arrangement", _NESTED),
    "blocks_compatible.calls": ("count", "lower", "arrangement", _NESTED),
    "blocks_compatible.self_s": ("s", "lower", "arrangement", _NESTED),
    "compatible_pairs": ("count", "lower", "arrangement", _NESTED + " (fixed by the instances)"),
    "meet.calls": ("count", "lower", "arrangement", _NESTED),
    "meet.hit_ratio": ("ratio", "higher", "arrangement", _NESTED + "; 1 - intersections computed / meet calls"),
    "is_block_subspace.calls": ("count", "lower", "arrangement", _NESTED),
    "is_block_subspace.self_s": ("s", "lower", "arrangement", _NESTED),
    "is_block_subspace.hit_ratio": ("ratio", "higher", "arrangement", _NESTED + "; 1 - reconstructions / lookups"),
    "antichain_checks": ("count", "lower", "arrangement", _NESTED),
    "nested.accept_ratio": ("ratio", "higher", "arrangement", _NESTED + "; nested sets emitted / antichain checks"),
    "enumerate_nested_sets.self_s": ("s", "lower", "arrangement", _NESTED),
    "intersection_lattice.self_s": ("s", "lower", "arrangement", _LATTICE),
    "lattice_elements": ("count", "lower", "arrangement", _LATTICE + " (fixed by the instances)"),
    "lattice.new_ratio": ("ratio", "higher", "arrangement", _LATTICE + "; new elements / intersections tried"),
    "enumerate_forests.self_s": ("s", "lower", "forests", _FOREST + " and peak_rss_mb there"),
    "forests": ("count", "lower", "forests", _FOREST + " (forests emitted, fixed by the instances)"),
    "Vertex.calls": ("count", "lower", "forests", _FOREST + " and peak_rss_mb there"),
    "node_sort_key.calls": ("count", "lower", "forests", _FOREST),
    "node_sort_key.self_s": ("s", "lower", "forests", _FOREST),
    "min_leaf.calls": ("count", "lower", "forests", _FOREST),
    "min_leaf.self_s": ("s", "lower", "forests", _FOREST),
    "gamma_tilde.self_s": ("s", "lower", "series", _SERIES + _NOT_SERIES),
    "lambda_for_subgroup.self_s": ("s", "lower", "series", _SERIES + _NOT_SERIES),
    "apply_exp_derive.calls": ("count", "lower", "series", _SERIES + _NOT_SERIES),
    "apply_exp_derive.self_s": ("s", "lower", "series", _SERIES + _NOT_SERIES),
    "MultiSeries.mul.calls": ("count", "lower", "series", _SERIES + _NOT_SERIES),
    "MultiSeries.mul.self_s": ("s", "lower", "series", _SERIES + _NOT_SERIES),
    "MultiSeries.exp.self_s": ("s", "lower", "series", _SERIES + _NOT_SERIES),
    "MultiSeries.inverse.self_s": ("s", "lower", "series", _SERIES + _NOT_SERIES),
    "big_g.self_s": ("s", "lower", "series", _SERIES + _NOT_SERIES),
    "max_terms": ("count", "lower", "series", _SERIES + "; largest coefficient dict built"),
    "main.self_s": ("s", "lower", "cli", "wall_s (series_emit_s: series_to_json and json.dumps) on series-deep"),
    # Untraced times of each kind of job, from the same run as the trace.
    "nested_route_s": ("s", "lower", "route", "count --method lattice jobs; route_s on subspace"),
    "lattice_s": ("s", "lower", "route", "lattice jobs; part of wall_s on subspace"),
    "forest_route_s": ("s", "lower", "route", "count --method forest jobs; route_s on forest-deep"),
    "series_route_s": ("s", "lower", "route", "count --method egf jobs; route_s on series-deep"),
    "series_emit_s": ("s", "lower", "route", "series jobs; part of wall_s on series-deep"),
    "trace_overhead_s": ("s", "lower", "benchmark", "traced wall_s minus untraced wall_s; moves nothing"),
}
