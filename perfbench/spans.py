"""Traced run: spans around the calls into each layer of `dowlingnest`.

The library is not changed.  `Tracer.install` replaces the layer functions
named in `SPANS` and `COUNTS` by wrappers, in every loaded `dowlingnest`
module that holds them (so `from .x import f` call sites are covered too),
and `Tracer.uninstall` puts the originals back.

A span is kept in memory as a call-tree node: (name, parent span, job id).
Calls on the same path within one job are merged into one node that keeps
the call count, the total time and the self time (total minus the time of
its child spans), so memory stays bounded on the hot paths.  `COUNTS`
wrappers only count calls; their time stays in the enclosing span.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# module, attribute path of each function given its own span
SPANS = (
    ("cli", "main"),
    ("instancefile", "load_instance"),
    ("groups", "enumerate_subgroups"),
    ("groups", "subgroup_conj_classes"),
    ("reps", "Representation.fix"),
    ("reps", "pointwise_stabilizer"),
    ("linalg", "rref"),
    ("linalg", "Subspace.intersect"),
    ("linalg", "Subspace.contains"),
    ("arrangement", "closed_subgroups"),
    ("arrangement", "building_blocks"),
    ("arrangement", "block_leq"),
    ("arrangement", "blocks_compatible"),
    ("arrangement", "ProblemInstance.meet"),
    ("arrangement", "is_block_subspace"),
    ("arrangement", "enumerate_nested_sets"),
    ("arrangement", "intersection_lattice"),
    ("forests", "enumerate_forests"),
    ("forests", "_node_sort_key"),
    ("forests", "min_leaf"),
    ("series", "big_g"),
    ("series", "gamma_tilde"),
    ("series", "lambda_for_subgroup"),
    ("series", "_apply_exp_derive"),
    ("series", "MultiSeries.mul"),
    ("series", "MultiSeries.exp"),
    ("series", "MultiSeries.inverse"),
)

# functions whose calls are only counted
COUNTS = (
    ("groups", "ConjClassPoset.leq"),
    ("linalg", "Subspace.contains_vector"),
    ("arrangement", "_reconstruct_block"),
    ("arrangement", "_antichain_violation"),
    ("arrangement", "raw_arrangement"),
    ("forests", "Vertex.__post_init__"),
    ("series", "MultiSeries.__init__"),
)


def _record_size(name):
    def after(tracer, args, result):
        tracer.per_job[(name, tracer.job)] = len(result)

    return after


def _record_true(name):
    def after(tracer, args, result):
        if result:
            tracer.counts[name] += 1

    return after


def _record_sum(name):
    def after(tracer, args, result):
        tracer.counts[name] += len(result)

    return after


def _record_terms(tracer, args, result):
    tracer.max_terms = max(tracer.max_terms, len(args[0].coeffs))


# what is recorded from a wrapped call's arguments and result
AFTER = {
    "building_blocks": _record_size("blocks"),
    "blocks_compatible": _record_true("compatible_pairs"),
    "enumerate_nested_sets": _record_sum("nested_sets"),
    "raw_arrangement": _record_sum("raw_subspaces"),
    "intersection_lattice": _record_sum("lattice_elements"),
    "enumerate_forests": _record_sum("forests"),
    "MultiSeries.__init__": _record_terms,
}


class Tracer:
    def __init__(self):
        self.nodes = []  # [name, parent, job, calls, total_s, self_s]
        self._index = {}  # (parent, name) -> node id
        self._stack = []  # [node id, start, child time]
        self.counts = Counter()
        self.per_job = {}  # (name, job) -> size of a result computed once per job
        self.max_terms = 0
        self.job = None
        self._patched = []

    # -- spans -----------------------------------------------------------------

    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        key = (parent, name) if parent >= 0 else (parent, name, self.job)
        nid = self._index.get(key)
        if nid is None:
            nid = len(self.nodes)
            self._index[key] = nid
            self.nodes.append([name, parent, self.job, 0, 0.0, 0.0])
        self._stack.append([nid, perf_counter(), 0.0])

    def exit(self):
        nid, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        node = self.nodes[nid]
        node[3] += 1
        node[4] += elapsed
        node[5] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def run_job(self, job_id, fn):
        """Run fn() as job `job_id` under a root span named `job`."""
        self.job = job_id
        self.enter("job")
        try:
            return fn()
        finally:
            self.exit()

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        after = AFTER.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "dowlingnest"
        }
        for targets, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for module, path in targets:
                owner = modules[f"dowlingnest.{module}"]
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                wrapper = make(path, original)
                self._patch(owner, attr, wrapper)
                if not classes:
                    # rebind `from .module import fn` copies as well
                    for mod in modules.values():
                        if mod is not owner and mod.__dict__.get(attr) is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def calls(self, name, parent=None):
        """Calls of span `name`, or only those made directly from span `parent`."""
        return sum(
            node[3]
            for node in self.nodes
            if node[0] == name
            and (parent is None or (node[1] >= 0 and self.nodes[node[1]][0] == parent))
        )

    def self_s(self, name):
        return sum((node[5] for node in self.nodes if node[0] == name), 0.0)

    def self_by_layer(self, job_ids):
        """(summed job span time, {layer: summed self time}) over the given jobs."""
        layer_of = {path: module for module, path in SPANS}
        layer_of["job"] = "benchmark"
        total = 0.0
        by_layer = Counter()
        for name, _parent, job, _calls, span_s, self_time in self.nodes:
            if job not in job_ids:
                continue
            if name == "job":
                total += span_s
            by_layer[layer_of[name]] += self_time
        return total, dict(by_layer)

    def metrics(self):
        """Every per-layer metric of the traced pass, keyed as in `metrics.PER_LAYER`."""

        def ratio(num, den):
            return num / den if den else 0.0

        calls, self_s, counts = self.calls, self.self_s, self.counts
        meets = calls("ProblemInstance.meet")
        recon_lookups = calls("is_block_subspace")
        lattice_calls = calls("intersection_lattice")
        return {
            "load_instance.calls": calls("load_instance"),
            "load_instance.self_s": self_s("load_instance"),
            "enumerate_subgroups.self_s": self_s("enumerate_subgroups"),
            "subgroup_conj_classes.self_s": self_s("subgroup_conj_classes"),
            "ConjClassPoset.leq.calls": counts["ConjClassPoset.leq"],
            "Representation.fix.calls": calls("Representation.fix"),
            "Representation.fix.self_s": self_s("Representation.fix"),
            "pointwise_stabilizer.calls": calls("pointwise_stabilizer"),
            "pointwise_stabilizer.self_s": self_s("pointwise_stabilizer"),
            "rref.calls": calls("rref"),
            "rref.self_s": self_s("rref"),
            "Subspace.intersect.calls": calls("Subspace.intersect"),
            "Subspace.intersect.self_s": self_s("Subspace.intersect"),
            "Subspace.contains.calls": calls("Subspace.contains"),
            "Subspace.contains.self_s": self_s("Subspace.contains"),
            "Subspace.contains_vector.calls": counts["Subspace.contains_vector"],
            "closed_subgroups.self_s": self_s("closed_subgroups"),
            "building_blocks.self_s": self_s("building_blocks"),
            "blocks": sum(v for (n, _), v in self.per_job.items() if n == "blocks"),
            "block_leq.calls": calls("block_leq"),
            "block_leq.self_s": self_s("block_leq"),
            "blocks_compatible.calls": calls("blocks_compatible"),
            "blocks_compatible.self_s": self_s("blocks_compatible"),
            "compatible_pairs": counts["compatible_pairs"],
            "meet.calls": meets,
            # share of meets answered from the instance's cache
            "meet.hit_ratio": (
                1.0 - ratio(calls("Subspace.intersect", parent="ProblemInstance.meet"), meets)
                if meets else 0.0
            ),
            "is_block_subspace.calls": recon_lookups,
            "is_block_subspace.self_s": self_s("is_block_subspace"),
            "is_block_subspace.hit_ratio": (
                1.0 - ratio(counts["_reconstruct_block"], recon_lookups)
                if recon_lookups else 0.0
            ),
            "antichain_checks": counts["_antichain_violation"],
            "nested.accept_ratio": ratio(
                counts["nested_sets"], counts["_antichain_violation"]
            ),
            "enumerate_nested_sets.self_s": self_s("enumerate_nested_sets"),
            "intersection_lattice.self_s": self_s("intersection_lattice"),
            "lattice_elements": counts["lattice_elements"],
            # the closure is seeded with the raw subspaces and the ambient space
            "lattice.new_ratio": ratio(
                counts["lattice_elements"] - counts["raw_subspaces"] - lattice_calls,
                calls("Subspace.intersect", parent="intersection_lattice"),
            ),
            "enumerate_forests.self_s": self_s("enumerate_forests"),
            "forests": counts["forests"],
            "Vertex.calls": counts["Vertex.__post_init__"],
            "node_sort_key.calls": calls("_node_sort_key"),
            "node_sort_key.self_s": self_s("_node_sort_key"),
            "min_leaf.calls": calls("min_leaf"),
            "min_leaf.self_s": self_s("min_leaf"),
            "gamma_tilde.self_s": self_s("gamma_tilde"),
            "lambda_for_subgroup.self_s": self_s("lambda_for_subgroup"),
            "apply_exp_derive.calls": calls("_apply_exp_derive"),
            "apply_exp_derive.self_s": self_s("_apply_exp_derive"),
            "MultiSeries.mul.calls": calls("MultiSeries.mul"),
            "MultiSeries.mul.self_s": self_s("MultiSeries.mul"),
            "MultiSeries.exp.self_s": self_s("MultiSeries.exp"),
            "MultiSeries.inverse.self_s": self_s("MultiSeries.inverse"),
            "big_g.self_s": self_s("big_g"),
            "max_terms": self.max_terms,
            "main.self_s": self_s("main"),
        }

    def dump(self, jobs):
        """Spans and counters as a JSON-ready dict; `jobs` maps job id -> name."""
        keys = ("name", "parent", "job", "calls", "total_s", "self_s")
        return {
            "jobs": {str(k): v for k, v in jobs.items()},
            "spans": [dict(zip(keys, node)) for node in self.nodes],
            "counts": dict(self.counts),
            "max_terms": self.max_terms,
        }
