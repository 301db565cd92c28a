"""Acceptance suite: one test per criterion, one PASS line per criterion.

Counts in EXPECTED_COUNTS were derived by running the three independent
routes (subspace-backtracking enumeration, direct forest generation, series
coefficients) to agreement, with the smallest instances additionally pinned
by the bitmask definition oracle in test_arrangement; they are frozen here
as regression values on top of the live three-way equality assertion.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from dowlingnest import (
    Subgroup,
    block_leq,
    block_subspace,
    building_blocks,
    closed_subgroups,
    closure_phi,
    conjugate_subgroup,
    enumerate_forests,
    enumerate_nested_sets,
    forest_to_nested,
    gamma_bar,
    gamma_tilde,
    intersection_lattice,
    lambda_bar,
    nested_count_via_series,
    nested_to_forest,
    partition_oracle,
)
from dowlingnest.forests import decompose_forest
from dowlingnest.series import admissible_order, subgroup_variable

from conftest import make_abelian_instance, make_s3_instance
from oracles import (
    count_arity2_trees,
    dowling_hyperplane_lattice,
    gamma_tilde_by_operators,
    isomorphic_by_key,
)

GRID_SPECS = (
    ("Z/2", [2], [[1]], (1, 2, 3, 4)),
    ("Z/3", [3], [[1]], (1, 2, 3)),
    ("Z/4", [4], [[1]], (1, 2, 3)),
    ("Z/2xZ/2", [2, 2], [[1, 0], [0, 1]], (1, 2, 3)),
)

EXPECTED_COUNTS = {
    ("Z/2", 1): 1,
    ("Z/2", 2): 9,
    ("Z/2", 3): 93,
    ("Z/2", 4): 1333,
    ("Z/3", 1): 1,
    ("Z/3", 2): 11,
    ("Z/3", 3): 151,
    ("Z/4", 1): 1,
    ("Z/4", 2): 13,
    ("Z/4", 3): 225,
    ("Z/2xZ/2", 1): 5,
    ("Z/2xZ/2", 2): 109,
    ("Z/2xZ/2", 3): 3493,
}


@pytest.fixture(scope="module")
def grid():
    instances = {}
    for name, factors, chars, ns in GRID_SPECS:
        base = make_abelian_instance(factors, chars, max(ns))
        for n in ns:
            instances[(name, n)] = base.with_n(n) if n != base.n else base
    return instances


def _report(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {text}")
    assert ok, text


def test_criterion_1_klein_closed_subgroups():
    start = time.perf_counter()
    inst = make_abelian_instance([2, 2], [[1, 0], [0, 1]], 2)
    cs = closed_subgroups(inst)
    got = [K.elements for K in cs.members]
    expected = [(0,), (0, 1), (0, 2), (0, 1, 2, 3)]
    diagonal = Subgroup((0, 3))
    ok = (
        got == expected
        and diagonal not in cs
        and closure_phi(inst, diagonal).elements == (0, 1, 2, 3)
    )
    elapsed = time.perf_counter() - start
    _report(
        1,
        ok and elapsed < 1.0,
        f"Klein four-group closed subgroups are e, H1, H2, G and the diagonal "
        f"closes up to G ({elapsed:.2f}s)",
    )


def test_criterion_2_three_way_count_agreement(grid):
    start = time.perf_counter()
    ok = True
    details = []
    for (name, n), inst in sorted(grid.items()):
        nested = len(enumerate_nested_sets(inst))
        forests = len(enumerate_forests(inst))
        via_series = nested_count_via_series(inst, n)
        agree = nested == forests == via_series == EXPECTED_COUNTS[(name, n)]
        ok = ok and agree
        details.append(f"{name} n={n}: {nested}")
    elapsed = time.perf_counter() - start
    _report(
        2,
        ok and elapsed < 300,
        "nested sets = forests = series coefficient on the whole grid "
        f"[{'; '.join(details)}] ({elapsed:.1f}s)",
    )


def test_criterion_3_block_order_equals_containment(grid):
    start = time.perf_counter()
    instances = dict(grid)
    instances[("S3", 2)] = make_s3_instance(2)
    ok = True
    pair_total = 0
    for (name, n), inst in sorted(instances.items()):
        blocks = building_blocks(inst)
        spaces = [block_subspace(inst, b) for b in blocks]
        for i, b1 in enumerate(blocks):
            for j, b2 in enumerate(blocks):
                pair_total += 1
                if block_leq(inst, b1, b2) != spaces[i].contains(spaces[j]):
                    ok = False
    elapsed = time.perf_counter() - start
    _report(
        3,
        ok and elapsed < 120,
        f"combinatorial block order equals subspace containment on "
        f"{pair_total} pairs ({elapsed:.1f}s)",
    )


def test_criterion_4_tree_series_fidelity():
    start = time.perf_counter()
    ok = True
    for r in (1, 2, 3, 4):
        lam = lambda_bar(r, 6)
        for l in range(1, 7):
            value = lam.coeffs.get((l,), Fraction(0)) * factorial(l)
            from_partitions = sum(
                partition_oracle(l + k - 1, k, r) for k in range(1, l + 1)
            )
            from_trees = count_arity2_trees(range(1, l + 1), r)
            if not (value == from_partitions == from_trees):
                ok = False
    elapsed = time.perf_counter() - start
    _report(
        4,
        ok and elapsed < 60,
        f"tree series coefficients match weighted partitions and exhaustive "
        f"tree enumeration for r <= 4, l <= 6 ({elapsed:.1f}s)",
    )


def test_criterion_5_bijection_round_trips(grid):
    start = time.perf_counter()
    instances = dict(grid)
    instances[("S3", 2)] = make_s3_instance(2)
    ok = True
    objects = 0
    for (name, n), inst in sorted(instances.items()):
        nested = enumerate_nested_sets(inst)
        forests = enumerate_forests(inst)
        image = set()
        for forest in forests:
            ns = forest_to_nested(inst, forest)
            image.add(ns)
            if nested_to_forest(inst, ns) != forest:
                ok = False
        if image != set(nested):
            ok = False
        for ns in nested:
            if forest_to_nested(inst, nested_to_forest(inst, ns)) != ns:
                ok = False
        objects += len(forests) + len(nested)
    elapsed = time.perf_counter() - start
    _report(
        5,
        ok,
        f"both bijection round trips are identities on {objects} enumerated "
        f"objects ({elapsed:.1f}s)",
    )


def test_criterion_6_dowling_specialization():
    """r = 1 admits no faithful representation without trivial summands
    (every representation of the trivial group is trivial), so the
    specialization runs over r in {2, 3}."""
    start = time.perf_counter()
    ok = True
    sizes = []
    for r in (2, 3):
        for n in (1, 2, 3):
            inst = make_abelian_instance([r], [[1]], n)
            mine = intersection_lattice(inst)
            oracle = dowling_hyperplane_lattice(r, n)
            mapping = isomorphic_by_key(mine, oracle, key=lambda s: s.basis)
            if mapping is None:
                ok = False
            sizes.append(f"Q_{n}(Z_{r})={len(mine)}")
    elapsed = time.perf_counter() - start
    _report(
        6,
        ok and elapsed < 120,
        f"intersection lattices poset-isomorphic to the reflection-arrangement "
        f"lattices [{'; '.join(sizes)}] ({elapsed:.1f}s)",
    )


def test_criterion_7_closure_operator_properties(grid):
    start = time.perf_counter()
    instances = [grid[(name, min(ns))] for name, _, _, ns in GRID_SPECS]
    instances.append(make_s3_instance(1))
    instances.append(make_abelian_instance([4], [[1], [2]], 1))
    ok = True
    for inst in instances:
        cs = closed_subgroups(inst)
        for K in cs.members:
            for g in inst.group.elements():
                if conjugate_subgroup(inst.group, K, g) not in cs:
                    ok = False
        subs = inst.subgroups()
        for H in subs:
            P = closure_phi(inst, H)
            if not set(H.elements) <= set(P.elements):
                ok = False
            if closure_phi(inst, P) != P:
                ok = False
            for K in subs:
                if H.is_subset(K) and not closure_phi(inst, H).is_subset(
                    closure_phi(inst, K)
                ):
                    ok = False
    elapsed = time.perf_counter() - start
    _report(
        7,
        ok,
        "conjugates of closed subgroups stay closed; the closure operator is "
        f"extensive, idempotent, monotone on {len(instances)} instances "
        f"({elapsed:.1f}s)",
    )


def test_criterion_8_series_structure(grid):
    start = time.perf_counter()
    ok = True
    for name, factors, chars, ns in GRID_SPECS:
        N = max(ns)
        base = make_abelian_instance(factors, chars, N)
        proper = admissible_order(base)
        # the operator construction, over every admissible order
        default = gamma_tilde(base, min(N, 3))
        for perm in permutations(proper):
            admissible = True
            seen = set()
            for H in perm:
                for K in proper:
                    if H.is_subset(K) and K != H and K.elements not in seen:
                        admissible = False
                seen.add(H.elements)
            if admissible and gamma_tilde_by_operators(
                base, min(N, 3), order=perm
            ) != default:
                ok = False
        # coefficients against forest statistics
        tilde = gamma_tilde(base, N)
        bar = gamma_bar(base, N)
        vars = tilde.vars
        whole = Subgroup(tuple(base.group.elements()))
        from collections import Counter

        tally_nofallen = Counter()
        tally_fallen = Counter()
        for n in range(1, N + 1):
            inst = base.with_n(n)
            for forest in enumerate_forests(inst):
                dec = decompose_forest(inst, forest)
                if any(K == whole for K, _ in dec.subforests):
                    continue
                a = tuple(dec.count_for(K) for K in proper)
                tally_fallen[(dec.components, dec.fallen, a)] += 1
                if dec.fallen == 0:
                    tally_nofallen[(dec.components, a)] += 1

        def exps(named):
            out = [0] * len(vars)
            for var, e in named.items():
                out[vars.index(var)] = e
            return tuple(out)

        for (j, a), count in tally_nofallen.items():
            named = {"s": j}
            named.update({subgroup_variable(K): e for K, e in zip(proper, a)})
            if tilde.coeffs.get(exps(named), Fraction(0)) != Fraction(
                count, factorial(sum(a))
            ):
                ok = False
        # and conversely: every pure-subgroup coefficient is a tally
        for e, c in tilde.coeffs.items():
            named = dict(zip(vars, e))
            if named.get("t"):
                continue
            a = tuple(named.get(subgroup_variable(K), 0) for K in proper)
            if sum(a) == 0:
                continue
            if c != Fraction(
                tally_nofallen.get((named["s"], a), 0), factorial(sum(a))
            ):
                ok = False
        for (j, h, a), count in tally_fallen.items():
            named = {"s": j, "t": h}
            named.update({subgroup_variable(K): e for K, e in zip(proper, a)})
            if bar.coeffs.get(exps(named), Fraction(0)) != Fraction(
                count, factorial(h + sum(a))
            ):
                ok = False
    elapsed = time.perf_counter() - start
    _report(
        8,
        ok,
        "the operator construction equals the composed series in every "
        "admissible order; coefficients equal the "
        f"forest decomposition statistics on the grid ({elapsed:.1f}s)",
    )
