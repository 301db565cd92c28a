"""Group layer: subgroup enumeration, conjugation, cosets, class poset."""

from __future__ import annotations

import json
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dowlingnest import (
    FiniteGroup,
    InstanceError,
    OrderBoundExceeded,
    Subgroup,
    closed_subgroups,
    conjugate_subgroup,
    enumerate_subgroups,
    left_cosets,
    subgroup_conj_classes,
)
from dowlingnest import groups
from dowlingnest.groups import DEFAULT_ORDER_BOUND, coset_rep, subgroup_closure
from dowlingnest.instancefile import load_instance, parse_group

from conftest import make_nonabelian_instance, s3_cayley_table
from oracles import associativity_failure, check_subgroup, tuple_to_id

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def brute_force_subgroups(G):
    """Oracle: every subset of G that holds the identity and is closed under
    the product (in a finite group, such a subset is a subgroup)."""
    others = [g for g in G.elements() if g != G.identity]
    found = []
    for size in range(len(others) + 1):
        for subset in combinations(others, size):
            elems = (G.identity,) + subset
            if all(G.mul(a, b) in elems for a in elems for b in elems):
                found.append(elems)
    return sorted(found, key=lambda e: (len(e), e))


def test_trivial_group_has_one_subgroup():
    G = FiniteGroup.from_abelian([1])
    assert enumerate_subgroups(G) == [Subgroup((0,))]


def test_klein_four_group_subgroups():
    G = FiniteGroup.from_abelian([2, 2])
    subs = enumerate_subgroups(G)
    assert [s.elements for s in subs] == brute_force_subgroups(G)
    assert len(subs) == 5
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 4]


def test_s3_subgroups_against_brute_force():
    """S3, and the group of every bundled instance file."""
    _, table = s3_cayley_table()
    groups = [FiniteGroup(table)]
    for path in sorted(INSTANCES.glob("*.json")):
        groups.append(parse_group(json.loads(path.read_text())["group"]))
    assert len(groups) == 8
    for G in groups:
        subs = enumerate_subgroups(G)
        assert [s.elements for s in subs] == brute_force_subgroups(G)
        for H in subs:
            check_subgroup(G, H)
    assert len(enumerate_subgroups(groups[0])) == 6


def test_subgroup_closure_is_the_least_subgroup_holding_the_generators():
    _, table = s3_cayley_table()
    for G in (FiniteGroup(table), FiniteGroup.from_abelian([2, 4])):
        subs = brute_force_subgroups(G)
        for size in range(G.order + 1):
            for gens in combinations(G.elements(), size):
                least = min((e for e in subs if set(gens) <= set(e)), key=len)
                assert subgroup_closure(G, gens).elements == least


def test_non_associative_loop_is_refused():
    """An identity-bordered Latin square of order 5 with x x = e for every
    x: a loop, not a group, as Z/5, the only group of order 5, has no
    element of order 2."""
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    assert associativity_failure(table) is not None
    with pytest.raises(InstanceError, match="not associative"):
        FiniteGroup(table)


def _group_tables():
    """The bundled group tables and Z/r's, of order at most 8, each with its
    transpose (the table of the opposite group)."""
    tables = [FiniteGroup.cyclic(r)._mul for r in range(1, 9)]
    for path in sorted(INSTANCES.glob("*.json")):
        G = parse_group(json.loads(path.read_text())["group"])
        if G.order <= 8:
            tables.append(G._mul)
    return tables + [tuple(zip(*t)) for t in tables]


def _cycle_switches(table):
    """Every table made by one row cycle switch away from row and column 0.
    For rows i != j, c -> c' with t[i][c'] = t[j][c] permutes the columns;
    swapping rows i and j on one of its cycles keeps each row and each
    column a permutation, so the result is again an identity-bordered
    Latin square."""
    n = len(table)
    out = []
    for i in range(1, n):
        for j in range(i + 1, n):
            where = {x: c for c, x in enumerate(table[i])}
            step = [where[x] for x in table[j]]
            seen = set(_cycle(step, 0))
            for c in range(1, n):
                if c not in seen:
                    cycle = set(_cycle(step, c))
                    seen |= cycle
                    rows = [list(row) for row in table]
                    for d in cycle:
                        rows[i][d], rows[j][d] = rows[j][d], rows[i][d]
                    out.append(rows)
    return out


def _cycle(step, c):
    d = c
    while True:
        yield d
        d = step[d]
        if d == c:
            return


SWITCHED_TABLES = [s for t in _group_tables() for s in _cycle_switches(t)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SWITCHED_TABLES))
def test_near_group_tables_are_refused_exactly_when_not_associative(table):
    """A group table of order <= 8 off by one cycle switch: FiniteGroup's
    Light test refuses it exactly when the exhaustive check finds a
    failing triple, and otherwise it is a group."""
    ids = list(range(len(table)))
    assert all(sorted(line) == ids for line in (*table, *zip(*table)))
    if associativity_failure(table) is None:
        G = FiniteGroup(table)
        assert all(G.mul(a, G.inv(a)) == 0 for a in G.elements())
    else:
        with pytest.raises(InstanceError, match="not associative"):
            FiniteGroup(table)


def test_order_bound_is_enforced():
    """Z/64, at the bound, has a subgroup per divisor of 64; Z/65 is refused."""
    at_bound = FiniteGroup.from_abelian([DEFAULT_ORDER_BOUND])
    assert len(enumerate_subgroups(at_bound)) == 7
    G = FiniteGroup.from_abelian([DEFAULT_ORDER_BOUND + 1])
    with pytest.raises(OrderBoundExceeded):
        enumerate_subgroups(G)


def test_conjugation_identity_and_abelian():
    G = FiniteGroup.from_abelian([2, 2])
    for H in enumerate_subgroups(G):
        assert conjugate_subgroup(G, H, 0) == H
        for g in G.elements():
            assert conjugate_subgroup(G, H, g) == H


def test_s3_conjugation_moves_transpositions():
    perms, table = s3_cayley_table()
    G = FiniteGroup(table)
    idx = {p: i for i, p in enumerate(perms)}
    swap_01 = idx[(1, 0, 2)]
    swap_12 = idx[(0, 2, 1)]
    three_cycle = idx[(1, 2, 0)]
    H = Subgroup((0, swap_01))
    conj = conjugate_subgroup(G, H, three_cycle)
    assert conj == Subgroup((0, swap_12))
    assert len(conj) == len(H)


def test_conjugation_preserves_order_everywhere():
    _, table = s3_cayley_table()
    G = FiniteGroup(table)
    for H in enumerate_subgroups(G):
        for g in G.elements():
            assert len(conjugate_subgroup(G, H, g)) == len(H)


def test_conj_classes_partition_the_subgroups():
    _, table = s3_cayley_table()
    G = FiniteGroup(table)
    subs = enumerate_subgroups(G)
    poset = subgroup_conj_classes(G, subs)
    covered = sorted(
        m.elements for cls in poset.classes for m in cls.members
    )
    assert covered == sorted(s.elements for s in subs)
    sizes = sorted(len(cls.members) for cls in poset.classes)
    assert sizes == [1, 1, 1, 3]  # {e}, A3, S3 are normal; transpositions fuse


def test_abelian_classes_are_singletons_with_inclusion_order():
    G = FiniteGroup.from_abelian([2, 2])
    subs = enumerate_subgroups(G)
    poset = subgroup_conj_classes(G, subs)
    assert all(len(cls.members) == 1 for cls in poset.classes)
    for P in subs:
        for Q in subs:
            assert poset.leq(P, Q) == P.is_subset(Q)


def test_class_order_is_a_partial_order():
    _, table = s3_cayley_table()
    G = FiniteGroup(table)
    poset = subgroup_conj_classes(G)
    reps = [c.representative for c in poset.classes]
    for P in reps:
        assert poset.leq(P, P)
        for Q in reps:
            if P != Q and poset.leq(P, Q):
                assert not poset.leq(Q, P)
            for R in reps:
                if poset.leq(P, Q) and poset.leq(Q, R):
                    assert poset.leq(P, R)


def test_left_cosets_partition():
    G = FiniteGroup.from_abelian([4])
    K = Subgroup((0, 2))
    cosets = left_cosets(G, K)
    assert [c.members for c in cosets] == [(0, 2), (1, 3)]
    assert [c.rep for c in cosets] == [0, 1]

    whole = Subgroup((0, 1, 2, 3))
    assert [c.rep for c in left_cosets(G, whole)] == [0]

    klein = FiniteGroup.from_abelian([2, 2])
    singles = left_cosets(klein, Subgroup((0,)))
    assert len(singles) == 4
    assert all(len(c.members) == 1 for c in singles)


def test_coset_partition_properties_s3():
    _, table = s3_cayley_table()
    G = FiniteGroup(table)
    for K in enumerate_subgroups(G):
        cosets = left_cosets(G, K)
        assert len(cosets) == G.order // len(K)
        seen = sorted(x for c in cosets for x in c.members)
        assert seen == list(G.elements())
        assert all(len(c.members) == len(K) for c in cosets)
        assert cosets[0].rep == 0
        for c in cosets:
            for g in c.members:
                assert coset_rep(G, K, g) == c.rep


def test_bad_cayley_tables_rejected():
    with pytest.raises(InstanceError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse row
    with pytest.raises(InstanceError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 not the identity


def test_from_abelian_builds_its_table_once(monkeypatch):
    calls = []
    build = groups._abelian_table

    def counted(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(groups, "_abelian_table", counted)
    FiniteGroup.from_abelian([2, 4])
    assert calls == [(2, 4)]


def test_abelian_spec_mixed_radix_roundtrip():
    G = FiniteGroup.from_abelian([2, 4])
    assert G.order == 8
    for a in G.elements():
        assert tuple_to_id(G, G.id_to_tuple(a)) == a
    assert G.id_to_tuple(0) == (0, 0)
    assert G.exponent() == 4


def _power_order(G, a):
    """The least k >= 1 with a^k = e, by repeated multiplication."""
    x, k = a, 1
    while x != G.identity:
        x, k = G.mul(x, a), k + 1
    return k


BUNDLED = sorted(p.stem for p in INSTANCES.glob("*.json"))
NONABELIAN = ["D4", "Q8", "A4", "S4"]


def _instance(name):
    if name in NONABELIAN:
        return make_nonabelian_instance(name, 1)
    return load_instance(INSTANCES / f"{name}.json", n_override=1)


@pytest.mark.parametrize("name", BUNDLED + NONABELIAN)
def test_group_facts_are_made_once_and_hold(name):
    """`generating_set` is cached on the group: a second call returns the
    same object, and it generates G.  The cached exponent is the lcm of the
    element orders."""
    G = _instance(name).group
    gens = groups.generating_set(G)
    assert groups.generating_set(G) is gens
    assert subgroup_closure(G, gens).elements == tuple(range(G.order))
    assert G.exponent() == lcm(*(_power_order(G, a) for a in G.elements()))


@pytest.mark.parametrize("name", [n for n in BUNDLED if _instance(n).group.is_abelian])
def test_closed_subgroups_of_an_abelian_group_are_their_own_conjugates(name):
    """The reason `_check_closed_set` skips the conjugation check when G
    is abelian: g K g^-1 = K for every closed K and every g."""
    inst = _instance(name)
    G = inst.group
    for K in closed_subgroups(inst).members:
        assert all(conjugate_subgroup(G, K, g) == K for g in G.elements())
