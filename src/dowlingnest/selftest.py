"""Cross-checks wired together so one command can vouch for an instance.

Each check returns (name, ok, detail); run_selftest prints one line per
check and reports overall success.  These are the same invariants the test
suite pins down, packaged for arbitrary user instances.
"""

from __future__ import annotations

from .arrangement import (
    block_leq,
    block_subspace,
    building_blocks,
    closed_subgroups,
    closure_phi,
    conjugate_subgroup,
    enumerate_nested_sets,
    is_nested,
    pairwise_compatible,
)
from .errors import SizeBoundExceeded
from .forests import enumerate_forests, forest_to_nested, nested_to_forest
from .series import nested_count_via_series


def _check_phi_closure(inst):
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


def _check_conjugation_stability(inst):
    cs = closed_subgroups(inst)
    for K in cs.members:
        for g in inst.group.elements():
            if conjugate_subgroup(inst.group, K, g) not in cs:
                return False, f"conjugate of {K.label()} not closed"
    return True, f"{len(cs.members)} closed subgroups"


def _check_block_order_oracle(inst):
    blocks = building_blocks(inst)
    spaces = [block_subspace(inst, b) for b in blocks]
    for i, b1 in enumerate(blocks):
        for j, b2 in enumerate(blocks):
            combinatorial = block_leq(inst, b1, b2)
            geometric = spaces[i].contains(spaces[j])
            if combinatorial != geometric:
                return False, f"{b1.describe(inst)} vs {b2.describe(inst)}"
    return True, f"{len(blocks)} blocks, {len(blocks) ** 2} pairs"


def _check_counts(inst):
    nested = enumerate_nested_sets(inst)
    forests = enumerate_forests(inst)
    if len(nested) != len(forests):
        return False, f"nested {len(nested)} != forests {len(forests)}"
    detail = f"nested = forests = {len(nested)}"
    if inst.group.is_abelian:
        via_series = nested_count_via_series(inst, inst.n)
        if via_series != len(nested):
            return False, f"series count {via_series} != {len(nested)}"
        detail += " = series count"
    return True, detail


def _check_bijection(inst):
    nested = enumerate_nested_sets(inst)
    forests = enumerate_forests(inst)
    image = set()
    for forest in forests:
        ns = forest_to_nested(inst, forest)
        if nested_to_forest(inst, ns) != forest:
            return False, "round trip through a nested set moved a forest"
        image.add(ns)
    if image != set(nested):
        return False, "forest image differs from the enumerated nested sets"
    for ns in nested:
        if forest_to_nested(inst, nested_to_forest(inst, ns)) != ns:
            return False, "round trip through a forest moved a nested set"
    return True, f"{len(forests)} objects on each side"


def _check_fast_path(inst):
    for ns in enumerate_nested_sets(inst):
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


def run_selftest(inst, emit=print):
    """Run every check; for an abelian group, first refuse an instance whose
    series count says its nested sets would pass the nested-set cap."""
    if inst.group.is_abelian:
        count = nested_count_via_series(inst, inst.n)
        if count > inst.cap_nested:
            raise SizeBoundExceeded(
                f"{count} nested sets at n={inst.n} exceed the cap of "
                f"{inst.cap_nested}; lower --n or raise --cap-nested"
            )
    failures = 0
    for name, fn in CHECKS:
        ok, detail = fn(inst)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        emit(f"{status} {name}: {detail}")
    return failures == 0
