"""Forest validation, the nested-set bijection, and decompositions."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from dowlingnest import (
    Block,
    MalformedForest,
    NestedSet,
    NotRealizable,
    SizeBoundExceeded,
    Subgroup,
    building_blocks,
    closed_subgroups,
    count_forests,
    decompose_forest,
    enumerate_forests,
    enumerate_nested_sets,
    forest_to_nested,
    is_nested,
    nested_count_via_series,
    nested_to_forest,
    validate_forest,
)
from dowlingnest.forests import (
    LabelledForest,
    Leaf,
    Vertex,
    forest_from_json,
    forest_to_json,
    forest_violation,
    internal_vertices,
)
from dowlingnest.groups import ConjClassPoset, left_cosets
from dowlingnest.instancefile import load_instance

from conftest import (
    capped,
    make_abelian_instance,
    make_n3_grid,
    make_nonabelian_instance,
    make_s3_instance,
    small_abelian_instances,
)
from oracles import (
    flat_tree_key,
    forest_order_key,
    forests_by_partitions,
    smallest_leaf,
    tree_order_key,
)

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
CHAINS8 = INSTANCE_DIR / "z2x4_chains.json"


# -- the eight-leaf worked example -----------------------------------------------------

C2 = Subgroup((0, 2))
C1 = Subgroup((0, 1, 2, 3))
C1P = Subgroup((0, 2, 4, 6))
WHOLE8 = Subgroup(tuple(range(8)))

# edge elements: a = (1,0) -> id 4, b = (1,2) -> id 6 (coset rep 4 mod C1),
# c = (1,1) -> id 5 (rep 5 mod C2), d = (1,0) -> id 4 (rep 4 mod C2)


def example_forest():
    lower_c1 = Vertex(C1, ((0, Leaf(4)), (4, Leaf(7))))
    low_c2 = Vertex(C2, ((0, Leaf(2)), (4, Leaf(6))))
    mid_c2 = Vertex(C2, ((5, Leaf(3)), (0, low_c2)))
    top_c1 = Vertex(C1, ((4, lower_c1), (0, mid_c2)))
    root_g = Vertex(WHOLE8, ((0, top_c1),))
    chain = Vertex(C1P, ((0, Vertex(C2, ((0, Leaf(5)),))),))
    return LabelledForest((Leaf(1), root_g, chain, Leaf(8)))


EXPECTED_BLOCKS = {
    Block(WHOLE8, (2, 3, 4, 6, 7), (0, 0, 0, 0, 0)),
    Block(C1, (2, 3, 4, 6, 7), (0, 4, 4, 4, 0)),
    Block(C1, (4, 7), (0, 4)),
    Block(C2, (2, 3, 6), (0, 5, 4)),
    Block(C2, (2, 6), (0, 4)),
    Block(C1P, (5,), (0,)),
    Block(C2, (5,), (0,)),
}


def test_example_forest_is_valid(chains8):
    assert validate_forest(chains8, example_forest())
    assert example_forest().fallen_leaves == (1, 8)


def test_example_forest_maps_to_the_seven_blocks(chains8):
    ns = forest_to_nested(chains8, example_forest())
    assert set(ns.blocks) == EXPECTED_BLOCKS
    assert is_nested(chains8, ns.blocks)


def test_seven_blocks_map_back_to_the_forest(chains8):
    ns = NestedSet(tuple(EXPECTED_BLOCKS))
    assert nested_to_forest(chains8, ns) == example_forest()


def test_unary_trivial_vertex_over_leaf_is_rejected(chains8):
    trivial = Subgroup((0,))
    bad = LabelledForest(
        (
            Vertex(trivial, ((0, Leaf(1)),)),
            Vertex(WHOLE8, tuple((0, Leaf(i)) for i in range(2, 9))),
        )
    )
    assert forest_violation(chains8, bad).startswith("rule (2)")


def test_two_trees_with_the_full_group_are_rejected(chains8):
    t1 = Vertex(WHOLE8, tuple((0, Leaf(i)) for i in (1, 2, 3, 4)))
    t2 = Vertex(WHOLE8, tuple((0, Leaf(i)) for i in (5, 6, 7, 8)))
    bad = LabelledForest((t1, t2))
    assert forest_violation(chains8, bad).startswith("rule (3)")


def test_smallest_leaf_edge_must_be_trivial(z3):
    e = Subgroup((0,))
    bad = LabelledForest((Vertex(e, ((1, Leaf(1)), (0, Leaf(2)))),))
    assert forest_violation(z3, bad).startswith("rule (5)")


def test_noncanonical_edge_representative_rejected(z4):
    whole = Subgroup((0, 1, 2, 3))
    sub = Subgroup((0, 2))
    # 3 is in the coset {1,3} of <2>, whose canonical representative is 1
    bad = LabelledForest(
        (Vertex(sub, ((0, Leaf(1)), (3, Leaf(2)))),)
    )
    inst = make_abelian_instance([4], [[1], [2]], 2)
    assert forest_violation(inst, bad).startswith("rule (4)")


def test_descendant_label_order_enforced(z4_plane):
    whole = Subgroup((0, 1, 2, 3))
    mid = Subgroup((0, 2))
    bad = LabelledForest(
        (
            Vertex(
                mid,
                (
                    (0, Vertex(whole, ((0, Leaf(1)), (0, Leaf(2))))),
                ),
            ),
        )
    )
    violation = forest_violation(z4_plane, bad)
    assert violation.startswith("rule (1)") or violation.startswith("rule (2)")


# on the plane, A3 = {0,3,4} is a subgroup whose closure is S3, and {0,1,2}
# is not a subgroup at all
@pytest.mark.parametrize(
    "label", [Subgroup((0, 3, 4)), Subgroup((0, 1, 2))], ids=["A3", "not-a-subgroup"]
)
def test_root_label_outside_the_closed_subgroups_is_rejected(s3, label):
    bad = LabelledForest((Vertex(label, ((0, Leaf(1)), (0, Leaf(2)))),))
    assert forest_violation(s3, bad) == (
        f"vertex label {label.label()} is not a closed subgroup"
    )


def test_child_label_outside_the_closed_subgroups_is_rejected():
    inst = make_s3_instance(3)
    child = Vertex(Subgroup((0, 1, 2)), ((0, Leaf(2)), (0, Leaf(3))))
    bad = LabelledForest((Vertex(Subgroup(tuple(range(6))), ((0, Leaf(1)), (0, child))),))
    assert forest_violation(inst, bad) == "vertex label {0,1,2} is not a closed subgroup"


def test_forest_without_internal_vertices_rejected():
    inst = make_abelian_instance([2], [[1]], 2)
    bare = LabelledForest((Leaf(1), Leaf(2)))
    assert forest_violation(inst, bare) == "forest has no internal vertex"


def test_malformed_forests_raise():
    inst = make_abelian_instance([2], [[1]], 2)
    with pytest.raises(MalformedForest):
        forest_violation(inst, LabelledForest((Leaf(1), Leaf(1))))
    with pytest.raises(MalformedForest):
        forest_violation(inst, LabelledForest((Leaf(1),)))
    with pytest.raises(MalformedForest):
        forest_violation(
            inst,
            LabelledForest((Leaf(1), Vertex(Subgroup((0, 1)), ()))),
        )


def test_single_tree_one_block_map(z2):
    e = Subgroup((0,))
    tree = Vertex(e, ((0, Leaf(1)), (1, Leaf(2))))
    ns = forest_to_nested(z2, LabelledForest((tree,)))
    assert ns.blocks == (Block(e, (1, 2), (0, 1)),)


def test_singleton_block_forest(z3):
    whole = Subgroup((0, 1, 2))
    inst = z3.with_n(3)
    ns = NestedSet((Block(whole, (2,), (0,)),))
    forest = nested_to_forest(inst, ns)
    assert forest.fallen_leaves == (1, 3)
    assert forest.internal_count() == 1
    assert forest_to_nested(inst, forest) == ns


# -- enumeration and the bijection ---------------------------------------------------


def test_single_factor_sign_has_one_forest():
    inst = make_abelian_instance([2], [[1]], 1)
    forests = enumerate_forests(inst)
    assert len(forests) == 1
    (forest,) = forests
    assert forest.internal_count() == 1


def test_forest_cap_raises(z2):
    with pytest.raises(SizeBoundExceeded):
        enumerate_forests(capped(z2, cap_nested=3))


def _enumerated(inst):
    return len(enumerate_forests(inst))


@pytest.mark.parametrize(
    "route, inst, count",
    [
        (_enumerated, make_abelian_instance([2], [[1]], 3), 93),
        (_enumerated, make_s3_instance(2), 215),
        (count_forests, make_abelian_instance([2], [[1]], 3), 93),
        (count_forests, make_s3_instance(2), 215),
    ],
    ids=["z2-n3", "s3-n2", "z2-n3-count", "s3-n2-count"],
)
def test_forest_cap_boundary(route, inst, count):
    """The cap counts valid forests only: the forest of fallen leaves alone,
    built on the way, does not count against it."""
    assert route(capped(inst, cap_nested=count)) == count
    with pytest.raises(SizeBoundExceeded):
        route(capped(inst, cap_nested=count - 1))


def test_count_forests_refuses_by_bit_length_and_exact_count(monkeypatch):
    """No block count is taken: with `block_count` made to raise, Z/2 at n=3
    (93 forests) passes a cap of 93 and is refused at 92.  Under the
    default cap of 10^7, of bit length 24, n=24 is refused by its count and
    n=25 before the closed subgroups are found."""
    from dowlingnest import arrangement, forests

    def refuse(*args, **kwargs):
        raise AssertionError("blocks or closed subgroups were counted")

    inst = make_abelian_instance([2], [[1]], 3)
    monkeypatch.setattr(arrangement, "block_count", refuse)
    assert count_forests(capped(inst, cap_nested=93)) == 93
    with pytest.raises(SizeBoundExceeded, match="^93 nested sets"):
        count_forests(capped(inst, cap_nested=92))
    with pytest.raises(SizeBoundExceeded, match="nested sets at n=24"):
        count_forests(inst.with_n(24))
    monkeypatch.setattr(forests, "closed_subgroups", refuse)
    with pytest.raises(SizeBoundExceeded, match="building blocks at n=25"):
        count_forests(inst.with_n(25))


# -- counting by part size -------------------------------------------------------------

# S3 on the plane, n = 1..20, from `count_forests`
S3_COUNTS = (
    7,
    215,
    10159,
    677183,
    58339327,
    6161342207,
    770615197183,
    111390258382847,
    18272832533098495,
    3354239870456856575,
    681282452895505055743,
    151709641915869191012351,
    36755901295704943285108735,
    9626216524323012284574597119,
    2710110402892211510425124077567,
    816263026577546891413781779316735,
    261911513133036277538415385096749055,
    89195816220560599244915760598037299199,
    32133850146283805728981840452143764471807,
    12210207845706133158405409765892939185127423,
)


@pytest.mark.parametrize(
    "inst",
    make_n3_grid()
    + [make_s3_instance(n) for n in (1, 2, 3)]
    + [make_abelian_instance([2], [[1]], n) for n in (1, 2, 4, 5)]
    + [load_instance(str(CHAINS8), n_override=n) for n in (1, 2)],
    ids=["z2-n3", "z3-n3", "z4-n3", "klein4-n3"]
    + [f"s3-n{n}" for n in (1, 2, 3)]
    + [f"z2-n{n}" for n in (1, 2, 4, 5)]
    + ["chains8-n1", "chains8-n2"],
)
def test_count_forests_matches_the_enumeration(inst):
    assert count_forests(inst) == len(enumerate_forests(inst))


@settings(max_examples=15, deadline=None)
@given(small_abelian_instances())
def test_count_forests_matches_the_enumeration_on_random_instances(inst):
    assert count_forests(inst) == len(enumerate_forests(inst))


@pytest.mark.parametrize(
    "name, top",
    [
        ("z2", 10),
        ("z3", 10),
        ("z4", 10),
        ("z4_plane", 10),
        ("klein4", 8),
        ("z2x4_chains", 8),
    ],
)
def test_count_forests_matches_the_series_count(name, top):
    """The series route shares no code with the forest rules; agreement at
    every n checks the recurrence well past the sizes enumeration reaches."""
    path = str(INSTANCE_DIR / f"{name}.json")
    inst = load_instance(path, n_override=top, cap_nested=10**30)
    for n in range(1, top + 1):
        at_n = inst.with_n(n)
        assert count_forests(at_n) == nested_count_via_series(at_n, n)


def test_s3_counts_past_the_paper():
    """The paper counts abelian G only.  S3 is pinned to n=20; at n <= 3 both
    enumerations give the pinned count, and n=4 is the 677,183 nested sets
    enumerated when the table was made."""
    inst = load_instance(str(INSTANCE_DIR / "s3.json"), cap_nested=10**50)
    counts = tuple(count_forests(inst.with_n(n)) for n in range(1, 21))
    assert counts == S3_COUNTS
    assert counts[3] == 677183
    for n in (1, 2, 3):
        at_n = inst.with_n(n)
        assert len(enumerate_forests(at_n)) == S3_COUNTS[n - 1]
        assert len(enumerate_nested_sets(at_n)) == S3_COUNTS[n - 1]



@pytest.mark.parametrize(
    "inst",
    make_n3_grid()
    + [
        make_s3_instance(3),
        make_abelian_instance([2], [[1]], 4),
        load_instance(str(CHAINS8), n_override=2),
    ],
    ids=["z2-n3", "z3-n3", "z4-n3", "klein4-n3", "s3-n3", "z2-n4", "chains8-n2"],
)
def test_enumeration_matches_the_partition_oracle(inst):
    """Same forests in the same order as building every combination of
    trees over every set partition, filtering, and sorting at the end."""
    assert enumerate_forests(inst) == forests_by_partitions(inst)


@settings(max_examples=15, deadline=None)
@given(small_abelian_instances())
def test_enumeration_matches_the_partition_oracle_on_random_instances(inst):
    assert enumerate_forests(inst) == forests_by_partitions(inst)


def _count_vertices(monkeypatch):
    """From here on, count the vertices built in a one-element list."""
    built = [0]
    post_init = Vertex.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Vertex, "__post_init__", counted)
    return built


@pytest.mark.parametrize(
    "inst",
    [make_abelian_instance([2], [[1]], 4), make_s3_instance(2)],
    ids=["z2-n4", "s3-n2"],
)
def test_enumeration_builds_only_vertices_it_returns(inst, monkeypatch):
    """Every vertex built is an internal vertex of some returned forest."""
    built = _count_vertices(monkeypatch)
    forests = enumerate_forests(inst)
    monkeypatch.undo()
    used = {id(v) for f in forests for t in f.trees for v in internal_vertices(t)}
    assert built[0] == len(used)


def test_cap_bounds_the_trees_built(monkeypatch):
    """Each tree is a forest once the other leaves fall, so a refusal comes
    before more trees than the cap are built: chains8 at n=4 has 1263
    blocks, under a cap of 2000, and far more forests."""
    inst = load_instance(str(CHAINS8), n_override=4, cap_nested=2000)
    built = _count_vertices(monkeypatch)
    with pytest.raises(SizeBoundExceeded):
        enumerate_forests(inst)
    assert built[0] <= 2001


def test_forest_count_equals_nested_count(z2, z3, z4, klein, s3):
    for inst in (z2, z3, z4, klein, s3):
        assert len(enumerate_forests(inst)) == len(enumerate_nested_sets(inst))


def test_bijection_round_trips(z2, z3, z4, klein, s3):
    for inst in (z2, z3, z4, klein, s3):
        nested = enumerate_nested_sets(inst)
        forests = enumerate_forests(inst)
        image = set()
        for forest in forests:
            ns = forest_to_nested(inst, forest)
            assert nested_to_forest(inst, ns) == forest
            image.add(ns)
        assert image == set(nested)
        for ns in nested:
            forest = nested_to_forest(inst, ns)
            assert forest_to_nested(inst, forest) == ns


@pytest.mark.parametrize(
    "inst",
    [
        make_abelian_instance([2, 2], [[1, 0], [0, 1]], 3),
        make_s3_instance(2),
        make_s3_instance(3),
    ],
    ids=["klein4-n3", "s3-n2", "s3-n3"],
)
def test_nested_to_forest_refuses_exactly_the_sets_that_are_not_nested(inst):
    """Random sets of one to four distinct blocks: `nested_to_forest` raises
    NotRealizable exactly when the `is_nested` oracle says no, and otherwise
    returns a forest that maps back onto the set."""
    rng = random.Random(f"nested-to-forest-{inst.n}-{inst.group.order}")
    blocks = building_blocks(inst)
    refused = 0
    for _ in range(300):
        ns = NestedSet(tuple(rng.sample(blocks, rng.randint(1, 4))))
        if is_nested(inst, ns.blocks):
            assert forest_to_nested(inst, nested_to_forest(inst, ns)) == ns
        else:
            refused += 1
            with pytest.raises(NotRealizable):
                nested_to_forest(inst, ns)
    assert 0 < refused < 300


def test_a_forest_that_passes_every_rule_can_still_miss_the_set():
    """On Klein n=3, {H^H2(1,2), H^H2(2,3)} is not nested, yet the build
    gives a forest that passes every labelling rule; it maps to
    {H^H2(1,2), H^H2(3)}, so only the round trip refuses it."""
    inst = make_abelian_instance([2, 2], [[1, 0], [0, 1]], 3)
    h2 = Subgroup((0, 1))
    ns = NestedSet((Block(h2, (1, 2), (0, 0)), Block(h2, (2, 3), (0, 0))))
    assert not is_nested(inst, ns.blocks)
    with pytest.raises(NotRealizable, match="another set of blocks"):
        nested_to_forest(inst, ns)


def _assert_stored_order_data(forest):
    for tree in forest.trees:
        for v in internal_vertices(tree):
            assert v.smallest == smallest_leaf(v)
            assert v.sort_key == flat_tree_key(v)


def _reversed_children(data):
    """Forest JSON with every list of trees and children in reverse."""
    if "leaf" in data:
        return data
    if "trees" in data:
        return dict(data, trees=[_reversed_children(t) for t in reversed(data["trees"])])
    return dict(
        data,
        children=[
            dict(edge, child=_reversed_children(edge["child"]))
            for edge in reversed(data["children"])
        ],
    )


def test_forest_order_matches_the_recursive_oracle(s3):
    for inst in make_n3_grid() + [s3]:
        forests = enumerate_forests(inst)
        keys = [forest_order_key(f) for f in forests]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        vertices = list(
            {
                id(v): v
                for f in forests
                for t in f.trees
                for v in internal_vertices(t)
            }.values()
        )
        by_stored = sorted(vertices, key=lambda v: v.sort_key)
        by_oracle = sorted(vertices, key=tree_order_key)
        assert [id(v) for v in by_stored] == [id(v) for v in by_oracle]


def test_stored_order_data_survives_rebuilding(s3):
    """Stored smallest leaves and keys match the oracle on enumerated forests
    and on forests rebuilt from nested sets and from JSON, where children
    arrive out of leaf order."""
    for inst in make_n3_grid() + [s3]:
        for forest in enumerate_forests(inst):
            _assert_stored_order_data(forest)
            rebuilt = nested_to_forest(inst, forest_to_nested(inst, forest))
            _assert_stored_order_data(rebuilt)
            assert rebuilt == forest
            loaded = forest_from_json(_reversed_children(forest_to_json(forest)))
            _assert_stored_order_data(loaded)
            assert loaded == forest


def test_full_group_blocks_in_one_nested_set_form_a_chain(klein):
    whole = Subgroup((0, 1, 2, 3))
    from dowlingnest import block_leq

    for ns in enumerate_nested_sets(klein):
        g_blocks = [b for b in ns.blocks if b.subgroup == whole]
        for a in g_blocks:
            for b in g_blocks:
                assert block_leq(klein, a, b) or block_leq(klein, b, a)


def test_enumerated_forests_all_validate(z4, klein, s3):
    for inst in (z4, klein, s3):
        for forest in enumerate_forests(inst):
            assert validate_forest(inst, forest)


def test_rule_4_condition_is_coset_invariant(s3):
    """Whether a^-1 P a lies in Q depends only on the coset aQ, so checking
    the canonical representative is exact."""
    from dowlingnest import closed_subgroups
    from dowlingnest.groups import coset_rep

    G = s3.group
    members = closed_subgroups(s3).members
    for Q in members:
        for P in members:
            for a in G.elements():
                direct = all(G.conj(G.inv(a), p) in Q.elements for p in P)
                rep = coset_rep(G, Q, a)
                via_rep = all(G.conj(G.inv(rep), p) in Q.elements for p in P)
                assert direct == via_rep


INSTANCE_FILES = sorted(INSTANCE_DIR.glob("*.json"))


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda p: p.stem)
def test_admissible_edges_imply_the_class_order(path):
    """enumerate_forests checks no class order: an edge coset aK with
    a^-1 L a <= K already gives [L] <= [K], and G fits under G alone."""
    inst = load_instance(str(path))
    G = inst.group
    conj = inst.conj_classes()
    whole = Subgroup(tuple(range(G.order)))
    members = closed_subgroups(inst).members
    for K in members:
        for L in members:
            reps = [
                c.rep
                for c in left_cosets(G, K)
                if all(G.conj(G.inv(c.rep), p) in K.elements for p in L)
            ]
            if reps:
                assert conj.leq(L, K)
            if L == whole and K != whole:
                assert reps == []
            if K == whole:
                assert reps == [0]


def test_enumeration_asks_no_class_order(monkeypatch):
    def refuse(self, P, Q):
        raise AssertionError("enumerate_forests asked ConjClassPoset.leq")

    monkeypatch.setattr(ConjClassPoset, "leq", refuse)
    for name, count in (("s3.json", 10159), ("klein4.json", 3493)):
        inst = load_instance(str(INSTANCE_DIR / name), n_override=3)
        assert len(enumerate_forests(inst)) == count

def test_s3_cross_transposition_edges_admit_one_coset(s3):
    """Conjugating one transposition subgroup into another pins the edge
    coset: exactly one of the three cosets satisfies the rule, and the
    enumeration produces forests using it."""
    from dowlingnest import closed_subgroups
    from dowlingnest.groups import left_cosets

    G = s3.group
    taus = [K for K in closed_subgroups(s3).members if len(K) == 2]
    assert len(taus) == 3
    found_edge = False
    for Q in taus:
        for P in taus:
            if P == Q:
                continue
            good = [
                c.rep
                for c in left_cosets(G, Q)
                if all(G.conj(G.inv(c.rep), p) in Q.elements for p in P)
            ]
            assert len(good) == 1
    for forest in enumerate_forests(s3):
        for tree in forest.trees:
            if isinstance(tree, Leaf):
                continue
            for v in _all_vertices(tree):
                for rep, child in v.children:
                    if (
                        isinstance(child, Vertex)
                        and len(v.subgroup) == 2
                        and len(child.subgroup) == 2
                        and child.subgroup != v.subgroup
                    ):
                        found_edge = True
    assert found_edge


def _all_vertices(node):
    if isinstance(node, Vertex):
        yield node
        for _, child in node.children:
            yield from _all_vertices(child)


def test_abelian_rule_variants_accept_the_same_forests(z4_plane, klein):
    """On abelian instances the general rules accept every enumerated
    forest (conjugacy is equality there, so the rules need no abelian
    variant of their own) and reject a tampered one."""
    for inst in (z4_plane, klein):
        for forest in enumerate_forests(inst):
            assert validate_forest(inst, forest)
        e = Subgroup((0,))
        whole = Subgroup(tuple(inst.group.elements()))
        bad = LabelledForest(
            (
                Vertex(e, ((0, Leaf(1)),)),
                Vertex(whole, ((0, Leaf(2)),)),
            )
        )
        assert not validate_forest(inst, bad)


def test_canonical_form_idempotent(klein):
    for forest in enumerate_forests(klein):
        rebuilt = LabelledForest(forest.trees)
        assert rebuilt == forest


def test_forest_json_round_trip(klein):
    for forest in enumerate_forests(klein)[:25]:
        data = forest_to_json(forest)
        assert forest_from_json(data) == forest


# -- decomposition ------------------------------------------------------------------


def test_example_decomposition_counts(chains8):
    dec = decompose_forest(chains8, example_forest())
    assert dec.fallen == 2  # leaves 1 and 8
    assert dec.components == 4
    counts = {K.elements: c for K, c in dec.leaf_counts}
    # leaves 4, 7 hang on C1 vertices; 2, 3, 6 and 5 hang on C2 vertices
    assert counts[C1.elements] == 2
    assert counts[C2.elements] == 4
    assert counts.get(C1P.elements, 0) == 0
    assert counts.get(WHOLE8.elements, 0) == 0
    subforests = {K.elements: trees for K, trees in dec.subforests}
    # C1 cluster: the top C1 vertex with its lower C1 child stay connected
    assert len(subforests[C1.elements]) == 1
    assert len(subforests[C2.elements]) == 2
    assert len(subforests[C1P.elements]) == 1
    assert len(subforests[WHOLE8.elements]) == 1


def test_single_label_decomposition(z2):
    e = Subgroup((0,))
    forest = LabelledForest((Vertex(e, ((0, Leaf(1)), (1, Leaf(2)))),))
    dec = decompose_forest(z2, forest)
    assert dec.fallen == 0
    assert dec.components == 1
    assert dec.leaf_counts == ((e, 2),)


def test_subforest_leaves_are_unlabelled(chains8):
    dec = decompose_forest(chains8, example_forest())
    for K, trees in dec.subforests:
        for tree in trees:
            for _, child in _walk_edges(tree):
                if isinstance(child, Leaf):
                    assert child.label is None


def _walk_edges(node):
    for rep, child in node.children:
        yield rep, child
        if isinstance(child, Vertex):
            yield from _walk_edges(child)


def test_count_forests_conjugates_each_label_once(monkeypatch):
    """The coset counts a_K(L) of every pair of labels come from one table
    of conjugates, made once per proper closed label L: at most |G| |L|
    conjugations each, and no coset is listed."""
    from dowlingnest import forests
    from dowlingnest.groups import FiniteGroup

    inst = load_instance(INSTANCE_DIR / "s3.json", n_override=3)
    members = closed_subgroups(inst).members
    calls = []
    conj = FiniteGroup.conj

    def counting(G, g, h):
        calls.append((g, h))
        return conj(G, g, h)

    def refuse(G, K):
        raise AssertionError("count_forests listed the cosets")

    monkeypatch.setattr(FiniteGroup, "conj", counting)
    monkeypatch.setattr(forests, "left_cosets", refuse)
    assert count_forests(inst) == 10159
    assert 0 < len(calls) <= inst.group.order * sum(len(L) for L in members[:-1])


@pytest.mark.parametrize("host", [p.stem for p in INSTANCE_FILES] + ["D4", "Q8", "A4", "S4"])
def test_coset_weights_count_the_admissible_cosets(host):
    """a_K(L) from the conjugate-label table equals its definition: the
    number of left cosets aK with a^-1 L a <= K."""
    from dowlingnest.forests import _coset_weights

    path = INSTANCE_DIR / f"{host}.json"
    inst = load_instance(str(path)) if path.exists() else make_nonabelian_instance(host, 2)
    G = inst.group
    members = closed_subgroups(inst).members
    expected = [
        [
            sum(
                all(G.conj(G.inv(c.rep), p) in K.elements for p in L)
                for c in left_cosets(G, K)
            )
            for L in members[:-1]
        ]
        for K in members
    ]
    assert _coset_weights(G, members)[1] == expected
