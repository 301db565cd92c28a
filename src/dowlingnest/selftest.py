"""Cross-checks wired together so one command can vouch for an instance.

Each check returns (name, ok, detail); run_selftest prints one line per
check and reports overall success.  These are the same invariants the test
suite pins down, packaged for arbitrary user instances.
"""

from __future__ import annotations

from .arrangement import (
    block_count,
    block_leq,
    block_subspace,
    building_blocks,
    closed_subgroups,
    closure_phi,
    conjugate_subgroup,
    count_nested_sets,
    enumerate_nested_sets,
    is_nested,
    pairwise_compatible,
)
from .errors import SizeBoundExceeded
from .forests import (
    count_forests,
    enumerate_forests,
    forest_to_nested,
    nested_to_forest,
)
from .frozen import Frozen, _set
from .linalg import integer_echelon
from .series import nested_count_via_series


def _check_phi_closure(inst, run):
    subs = inst.subgroups()
    for H in subs:
        P = closure_phi(inst, H)
        if not set(H.elements) <= set(P.elements):
            return False, f"phi not extensive at {H.label()}"
        if closure_phi(inst, P).elements != P.elements:
            return False, f"phi not idempotent at {H.label()}"
    for H in subs:
        for K in subs:
            if set(H.elements) <= set(K.elements):
                PH = closure_phi(inst, H)
                PK = closure_phi(inst, K)
                if not set(PH.elements) <= set(PK.elements):
                    return False, f"phi not monotone at {H.label()} <= {K.label()}"
    return True, f"{len(subs)} subgroups"


def _check_conjugation_stability(inst, run):
    cs = closed_subgroups(inst)
    for K in cs.members:
        for g in inst.group.elements():
            if conjugate_subgroup(inst.group, K, g) not in cs:
                return False, f"conjugate of {K.label()} not closed"
    return True, f"{len(cs.members)} closed subgroups"


def _check_block_order_oracle(inst, run):
    # W contains U when U's rows leave W's canonical integer echelon as it is
    blocks = building_blocks(inst)
    echelons = [block_subspace(inst, b).echelon for b in blocks]
    for i, b1 in enumerate(blocks):
        for j, b2 in enumerate(blocks):
            combinatorial = block_leq(inst, b1, b2)
            geometric = integer_echelon(echelons[i] + echelons[j]) == echelons[i]
            if combinatorial != geometric:
                return False, f"{b1.describe(inst)} vs {b2.describe(inst)}"
    return True, f"{len(blocks)} blocks, {len(blocks) ** 2} pairs"


def _check_counts(inst, run):
    nested, forests = run.nested, run.forests
    if len(nested) != len(forests):
        return False, f"nested {len(nested)} != forests {len(forests)}"
    if run.forest_count != len(nested):
        return False, f"forest count {run.forest_count} != {len(nested)}"
    if run.clique_count != len(nested):
        return False, f"clique count {run.clique_count} != {len(nested)}"
    detail = f"nested = forests = forest count = {len(nested)}"
    if run.series_count is not None:
        if run.series_count != len(nested):
            return False, f"series count {run.series_count} != {len(nested)}"
        detail += " = series count"
    return True, detail


def _check_bijection(inst, run):
    # Every forest survives forest -> nested -> forest, so forest_to_nested
    # is injective, and its image is the enumerated nested sets.  So each
    # nested set S is forest_to_nested(F) for one forest F, nested_to_forest
    # sends S to F, and F goes back to S: the round trip from the nested
    # side needs no loop of its own.
    image = set()
    for forest in run.forests:
        ns = forest_to_nested(inst, forest)
        if nested_to_forest(inst, ns) != forest:
            return False, "round trip through a nested set moved a forest"
        image.add(ns)
    if image != set(run.nested):
        return False, "forest image differs from the enumerated nested sets"
    return True, f"{len(run.forests)} objects on each side"


def _check_fast_path(inst, run):
    for ns in run.nested:
        if not pairwise_compatible(inst, ns.blocks):
            return False, "an enumerated nested set fails pairwise compatibility"
        if not is_nested(inst, ns.blocks):
            return False, "an enumerated nested set fails the full check"
    return True, "fast path agrees with the antichain check"


CHECKS = (
    ("closure-operator", _check_phi_closure),
    ("conjugation-stability", _check_conjugation_stability),
    ("block-order-vs-containment", _check_block_order_oracle),
    ("count-agreement", _check_counts),
    ("forest-bijection", _check_bijection),
    ("nested-fast-path", _check_fast_path),
)


class _Run(Frozen):
    """What the checks share: each route enumerated or counted once (the
    series count is None for a nonabelian group)."""

    __slots__ = ("nested", "forests", "forest_count", "clique_count", "series_count")

    def __init__(self, nested, forests, forest_count, clique_count, series_count):
        _set(self, "nested", nested)
        _set(self, "forests", forests)
        _set(self, "forest_count", forest_count)
        _set(self, "clique_count", clique_count)
        _set(self, "series_count", series_count)


def _check_work(inst, count):
    """Refuse an instance whose nested count times its number of building
    blocks (a bound on the work of the checks) passes the nested-set cap.
    The blocks are counted, not built."""
    blocks = block_count(inst)
    if count * blocks > inst.cap_nested:
        raise SizeBoundExceeded(
            f"selftest work {count} nested sets x {blocks} blocks = "
            f"{count * blocks} at n={inst.n} exceeds the cap of "
            f"{inst.cap_nested}; lower --n or raise --cap-nested"
        )


def run_selftest(inst, emit=print):
    """Run every check on one enumeration of each route.

    The work is bounded before anything is enumerated or printed, for every
    G: `count_forests` refuses a count past the nested-set cap, and
    `_check_work` that count times the number of blocks.
    """
    count = count_forests(inst)
    _check_work(inst, count)
    series_count = None
    if inst.group.is_abelian:
        series_count = nested_count_via_series(inst, inst.n)
    run = _Run(
        enumerate_nested_sets(inst),
        enumerate_forests(inst),
        count,
        count_nested_sets(inst),
        series_count,
    )
    failures = 0
    for name, fn in CHECKS:
        ok, detail = fn(inst, run)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        emit(f"{status} {name}: {detail}")
    return failures == 0
