"""Arrangement layer: closure operator, blocks, order, nested sets, lattice."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dowlingnest import (
    InstanceError,
    ProblemInstance,
    Representation,
    SizeBoundExceeded,
    Subgroup,
    Subspace,
    block_leq,
    block_subspace,
    blocks_compatible,
    building_blocks,
    closed_subgroups,
    closure_phi,
    conjugate_subgroup,
    count_forests,
    count_nested_sets,
    enumerate_forests,
    enumerate_nested_sets,
    flat_counts,
    intersection_lattice,
    is_block_subspace,
    is_nested,
    iter_nested_sets,
    kernel,
    nested_count_via_series,
    raw_arrangement,
)
from dowlingnest.arrangement import (
    ClosedSubgroupSet,
    _check_closed_set,
    _compatibility,
    block_count,
    disjoint_covers,
    free_factor_subspace,
    nested_sets_poset,
    pairwise_compatible,
)
from dowlingnest.export import nested_covers
from dowlingnest.instancefile import load_instance
from dowlingnest.selftest import CHECKS, run_selftest

from conftest import (
    capped,
    make_abelian_instance,
    make_n3_grid,
    make_nonabelian_instance,
    make_s3_instance,
    small_abelian_instances,
)
from oracles import (
    check_partial_order,
    clique_count_by_walk,
    lattice_oracle,
    matrices_of,
    set_partitions,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


# -- closure operator ------------------------------------------------------------


def test_phi_on_klein_named_subgroups(klein):
    e = Subgroup((0,))
    diag = Subgroup((0, 3))
    whole = Subgroup((0, 1, 2, 3))
    assert closure_phi(klein, e) == e
    assert closure_phi(klein, diag) == whole
    assert closure_phi(klein, whole) == whole


def test_klein_closed_subgroups_exactly(klein):
    cs = closed_subgroups(klein)
    labels = [K.elements for K in cs.members]
    assert labels == [(0,), (0, 1), (0, 2), (0, 1, 2, 3)]
    assert Subgroup((0, 3)) not in cs


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_single_faithful_character_closed_subgroups(r):
    """Brute force over all subgroups: with one faithful character every
    nontrivial subgroup has fixed space 0, so only {e} and G are closed."""
    inst = make_abelian_instance([r], [[1]], 1)
    cs = closed_subgroups(inst)
    for H in inst.subgroups():
        expected_fix = 1 if len(H) == 1 else 0
        assert inst.rep.fix_true_dim(H) == expected_fix
    assert [len(K) for K in cs.members] == [1, r]


def test_s3_closed_subgroups_by_brute_force(s3):
    """On the sum-zero plane a 3-cycle fixes nothing, so A3 shares its fixed
    space with S3 and closes up to S3; the five other subgroups are closed."""
    cs = closed_subgroups(s3)
    assert len(s3.subgroups()) == 6
    assert len(cs.members) == 5
    a3 = next(H for H in s3.subgroups() if len(H) == 3)
    assert a3 not in cs
    assert cs.phi(a3).elements == tuple(range(6))
    for H in s3.subgroups():
        same_fix = [
            K
            for K in s3.subgroups()
            if s3.rep.fix(K) == s3.rep.fix(H)
        ]
        maximal = max(same_fix, key=len)
        assert cs.phi(H) == maximal


def test_phi_is_a_closure_operator(klein, s3, z4_plane):
    for inst in (klein, s3, z4_plane):
        subs = inst.subgroups()
        for H in subs:
            P = closure_phi(inst, H)
            assert set(H.elements) <= set(P.elements)
            assert closure_phi(inst, P) == P
            assert inst.rep.fix(P) == inst.rep.fix(H)
        for H in subs:
            for K in subs:
                if H.is_subset(K):
                    assert closure_phi(inst, H).is_subset(closure_phi(inst, K))


def test_conjugates_of_closed_subgroups_are_closed(klein, s3):
    for inst in (klein, s3):
        cs = closed_subgroups(inst)
        for K in cs.members:
            for g in inst.group.elements():
                assert conjugate_subgroup(inst.group, K, g) in cs


@pytest.mark.parametrize(
    "case, message",
    [
        ("no-trivial", "must include"),
        ("shared-fixed-space", "share a fixed subspace"),
        ("one-transposition", "conjugation-stable"),
    ],
)
def test_each_check_of_the_closed_set_fires(s3, case, message):
    """On S3 the closed subgroups are {e}, the three transpositions and G:
    a set without {e}, with A3 (which fixes 0, as G does) or with only one
    transposition is refused."""
    by_size = {}
    for H in s3.subgroups():
        by_size.setdefault(len(H), []).append(H)
    (e,), transpositions, (a3,), (whole,) = (by_size[k] for k in (1, 2, 3, 6))
    cs = closed_subgroups(s3)
    assert list(cs.members) == [e, *transpositions, whole]
    members = {
        "no-trivial": [*transpositions, whole],
        "shared-fixed-space": [e, *transpositions, a3, whole],
        "one-transposition": [e, transpositions[0], whole],
    }[case]
    corrupted = ClosedSubgroupSet(members=tuple(members), closure_map=cs.closure_map)
    with pytest.raises(InstanceError, match=message):
        _check_closed_set(s3, corrupted)


def test_character_closure_agrees_with_stabilizer_route():
    """`_reconstruct_block` takes a label K with Fix(K) = proj and
    K = stab(proj) to be closed; that needs phi, which takes a character
    shortcut, to equal stab(Fix(H)) on every abelian instance."""
    from dowlingnest.reps import pointwise_stabilizer

    abelian = [
        inst
        for inst in (load_instance(p, n_override=1) for p in sorted(INSTANCES.glob("*.json")))
        if inst.rep.char_exponents is not None
    ]
    assert len(abelian) == 6
    for inst in abelian:
        for H in inst.subgroups():
            assert closure_phi(inst, H) == pointwise_stabilizer(
                inst.rep, inst.rep.fix(H)
            )


# -- raw arrangement ----------------------------------------------------------------


def test_raw_arrangement_is_b2(z2):
    raw = raw_arrangement(z2)
    assert len(raw) == 4
    expected = {
        Subspace.from_spanning(2, [(1, 1)]).basis,   # v2 = v1
        Subspace.from_spanning(2, [(1, -1)]).basis,  # v2 = -v1
        Subspace.from_spanning(2, [(0, 1)]).basis,   # v1 = 0
        Subspace.from_spanning(2, [(1, 0)]).basis,   # v2 = 0
    }
    assert {s.basis for s in raw} == expected


def test_raw_arrangement_single_factor_sign():
    inst = make_abelian_instance([2], [[1]], 1)
    raw = raw_arrangement(inst)
    assert len(raw) == 1
    assert raw[0].dim == 0


def test_self_subspace_codimension(s3):
    """codim H(i,i,g) equals dim V minus the fixed dimension of <g>."""
    from dowlingnest.groups import subgroup_closure

    for g in s3.group.elements():
        if g == 0:
            continue
        fix_g = s3.rep.fix(subgroup_closure(s3.group, (g,)))
        s = free_factor_subspace(s3, fix_g.echelon, (0,), (0,))
        assert s.codim == s3.rep.matrix_dim - fix_g.dim


def test_pair_subspace_codimension(klein):
    V = Subspace.full(klein.block_width).echelon
    for g in klein.group.elements():
        s = free_factor_subspace(klein, V, (0, 1), (0, g))
        assert s.codim == klein.rep.matrix_dim


# -- intersection lattice ---------------------------------------------------------------


def test_lattice_single_factor_is_a_chain():
    inst = make_abelian_instance([2], [[1]], 1)
    poset = intersection_lattice(inst)
    assert len(poset) == 2
    assert [s.dim for s in poset.elements] == [1, 0]
    check_partial_order(poset)


def brute_force_hyperplane_lattice(normal_sets, ambient):
    """Oracle: distinct solution spaces over all subsets of hyperplanes."""
    spaces = {Subspace.full(ambient).basis}
    for size in range(1, len(normal_sets) + 1):
        for subset in combinations(normal_sets, size):
            rows = tuple(row for rows in subset for row in rows)
            spaces.add(kernel(rows, ambient).basis)
    return spaces


def test_lattice_z2_n3_matches_hyperplane_oracle():
    inst = make_abelian_instance([2], [[1]], 3)
    poset = intersection_lattice(inst)
    # independent: hyperplanes x_i = +- x_j and x_i = 0 in Q^3
    normals = []
    for i in range(3):
        for j in range(i + 1, 3):
            for sign in (1, -1):
                row = [0, 0, 0]
                row[j] = 1
                row[i] = -sign
                normals.append((tuple(Fraction(x) for x in row),))
        row = [0, 0, 0]
        row[i] = 1
        normals.append((tuple(Fraction(x) for x in row),))
    oracle = brute_force_hyperplane_lattice(normals, 3)
    assert {s.basis for s in poset.elements} == oracle
    assert len(poset) == 24
    check_partial_order(poset)


def test_every_lattice_element_is_a_transversal_block_intersection(z2, z3, klein):
    """Each flat is the intersection of the minimal blocks containing it,
    with codimensions adding up."""
    for inst in (z2, z3, klein):
        blocks = building_blocks(inst)
        spaces = [block_subspace(inst, b) for b in blocks]
        for flat in intersection_lattice(inst).elements:
            containing = [s for s in spaces if s.contains(flat)]
            if not containing:
                assert flat.dim == inst.ambient_dim
                continue
            minimal = [
                s
                for s in containing
                if not any(o is not s and s.contains(o) and s != o for o in containing)
            ]
            meet = Subspace.full(inst.ambient_dim)
            codims = 0
            for s in minimal:
                meet = meet.intersect(s)
                codims += s.codim
            assert meet == flat
            assert flat.codim == codims


@st.composite
def part_families(draw):
    """(S, g_free, parts): a bit set S within bits 0..5 and a list of parts
    (mask, marked G, item) on those bits, most of them within S, some
    masks repeated with other items."""
    bits = draw(st.integers(1, 6))
    S = draw(st.integers(0, (1 << bits) - 1))
    masks = draw(st.lists(st.integers(1, (1 << bits) - 1), max_size=24))
    masks = [m & S if m & S and draw(st.integers(0, 3)) else m for m in masks]
    if draw(st.booleans()):  # every bit of S alone, so some cover exists
        masks += [1 << i for i in range(bits) if S >> i & 1]
    parts = [
        (mask, draw(st.booleans()), f"p{j}") for j, mask in enumerate(masks)
    ]
    return S, draw(st.booleans()), parts


@settings(max_examples=200, deadline=None)
@given(part_families())
def test_disjoint_covers_equal_the_filtered_set_partitions(family):
    """The covers are the set partitions of S whose every block is a part,
    at most one marked (none unless g_free), ordered by the positions of
    their parts in the lists, taken by smallest bit."""
    S, g_free, parts = family
    at = {}
    for part in parts:
        at.setdefault((part[0] & -part[0]).bit_length() - 1, []).append(part)

    def parts_at(i, rest):
        return at.get(i, [])

    expected = []
    bits = [i for i in range(S.bit_length()) if S >> i & 1]
    for partition in set_partitions(bits):
        blocks = sorted(partition)
        choices = [
            [(j, p) for j, p in enumerate(at.get(b[0], [])) if p[0] == sum(1 << i for i in b)]
            for b in blocks
        ]
        for pick in product(*choices):
            if sum(p[1] for _, p in pick) <= g_free:
                expected.append(([j for j, _ in pick], tuple(p[2] for _, p in pick)))
    expected.sort()
    assert disjoint_covers(S, g_free, parts_at) == [cover for _, cover in expected]


def test_disjoint_covers_of_nothing_is_the_empty_cover():
    def parts_at(i, S):
        raise AssertionError("no part is asked for on the empty set")

    assert disjoint_covers(0, True, parts_at) == [()]
    assert disjoint_covers(0, False, parts_at) == [()]


def test_lattice_matches_the_subspace_meet_oracle():
    """The block sets, ordered by the masks of the blocks containing them,
    give the elements and order of the closure by perp -> sum -> perp
    meets and `Subspace.contains`."""
    instances = make_n3_grid() + [
        make_s3_instance(2),
        make_abelian_instance([4], [[1], [2]], 2),
        make_abelian_instance([2], [[1]], 4),
    ]
    for inst in instances:
        mine = intersection_lattice(inst)
        oracle = lattice_oracle(inst)
        assert mine.elements == oracle.elements
        assert mine.up == oracle.up


def _check_against_the_oracle(inst):
    oracle = lattice_oracle(inst)
    mine = intersection_lattice(inst)
    assert mine.elements == oracle.elements
    assert mine.up == oracle.up
    dims = {}
    for flat in oracle.elements:
        dims[flat.dim] = dims.get(flat.dim, 0) + 1
    counts = flat_counts(inst)
    assert counts == dims
    assert list(counts) == sorted(dims, reverse=True)


@settings(max_examples=25, deadline=None)
@given(small_abelian_instances())
def test_block_sets_match_the_oracle_on_random_instances(inst):
    """The block-set poset and the counting recurrence against the closure
    by subspace meets.  Instances past 200 flats are left out: the oracle
    takes seconds there (16 s on Z/2 x Z/4 at n = 3), and the n = 3 grid
    above is checked in full."""
    assume(sum(flat_counts(inst).values()) <= 200)
    _check_against_the_oracle(inst)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_sets_match_the_oracle_on_s3(n):
    """A nonabelian G: 413 flats at n = 3."""
    _check_against_the_oracle(make_s3_instance(n))


def _dowling_whitney_numbers(r, n):
    """W(n, k), the flats of dimension k of the Dowling lattice of Z/r:
    W(n, k) = W(n-1, k-1) + (1 + r k) W(n-1, k), from W(0, 0) = 1."""
    w = [1]
    for _ in range(n):
        w = [
            (w[k - 1] if k else 0) + (1 + r * k) * (w[k] if k < len(w) else 0)
            for k in range(len(w) + 1)
        ]
    return w


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_flat_counts_are_dowlings_whitney_numbers(r):
    """One faithful character of Z/r, n <= 12: the recurrence over block
    sets gives Dowling's Whitney numbers (Z/2 at n = 12 has 1,606,879,040
    flats), and the exact total is the largest cap it passes."""
    for n in range(1, 13):
        inst = make_abelian_instance([r], [[1]], n)
        degree = inst.rep.scalar_degree
        expected = {
            k * degree: w for k, w in enumerate(_dowling_whitney_numbers(r, n))
        }
        total = sum(expected.values())
        assert flat_counts(capped(inst, cap_lattice=total)) == expected
        with pytest.raises(SizeBoundExceeded, match=f"above the cap of {total - 1}$"):
            flat_counts(capped(inst, cap_lattice=total - 1))
    assert total == sum(_dowling_whitney_numbers(r, 12))
    if r == 2:
        assert total == 1_606_879_040


# Computed by a separate recurrence over set partitions by smallest index,
# with two tables (no part labelled G, one part labelled G), on multi-label
# and nonabelian hosts, where no oracle reaches.
FLAT_COUNTS_AT_6 = {
    "s3": {12: 1, 11: 18, 10: 231, 9: 1845, 8: 10950, 7: 45648, 6: 137504,
           5: 279468, 4: 363201, 3: 256266, 2: 74337, 1: 4095, 0: 1},
    "z2x4_chains": {48: 1, 46: 6, 44: 21, 42: 68, 40: 306, 38: 966, 36: 2406,
                    34: 6036, 32: 16883, 30: 35746, 28: 66806, 26: 129236,
                    24: 244931, 22: 351398, 20: 486266, 18: 670288,
                    16: 786399, 14: 695210, 12: 630602, 10: 466796,
                    8: 235742, 6: 82932, 4: 19845, 2: 1092, 0: 1},
    "klein4": {12: 1, 11: 12, 10: 126, 9: 760, 8: 3695, 7: 12232, 6: 30804,
               5: 51952, 4: 59151, 3: 37484, 2: 10990, 1: 728, 0: 1},
    "z4_plane": {24: 1, 22: 6, 20: 81, 18: 320, 16: 1850, 14: 4586,
                 12: 13461, 10: 18536, 8: 25326, 6: 14182, 4: 5677, 2: 364,
                 0: 1},
}
FLAT_TOTALS = {
    "s3": (1_173_565, 197_034_025_171),
    "z2x4_chains": (4_929_983, 1_931_965_270_871),
    "klein4": (207_936, 9_853_780_992),
    "z4_plane": (84_391, 2_959_028_511),
}


@pytest.mark.parametrize("name", sorted(FLAT_TOTALS))
def test_flat_counts_pinned(name):
    """The full count by dimension at n = 6 and the total at n = 10."""
    at_6, at_10 = FLAT_TOTALS[name]
    inst = load_instance(INSTANCES / f"{name}.json", n_override=6)
    counts = flat_counts(capped(inst, cap_lattice=at_6))
    assert counts == FLAT_COUNTS_AT_6[name]
    assert list(counts) == sorted(counts, reverse=True)
    assert sum(counts.values()) == at_6
    inst = capped(inst.with_n(10), cap_lattice=at_10)
    assert sum(flat_counts(inst).values()) == at_10


def test_flat_counts_build_no_block_or_subspace(monkeypatch):
    """The recurrence needs only the closed subgroups and their fixed
    dimensions: with the block and subspace builders made to raise it still
    counts, and it refuses an n with 2^n above the cap without counting."""
    from dowlingnest import arrangement

    def refuse(*args, **kwargs):
        raise AssertionError("a block or a subspace of V^n was built")

    inst = make_abelian_instance([2], [[1]], 4)
    closed_subgroups(inst)
    for name in ("building_blocks", "block_subspace", "free_factor_subspace"):
        monkeypatch.setattr(arrangement, name, refuse)
    assert flat_counts(inst) == {4: 1, 3: 16, 2: 58, 1: 40, 0: 1}
    with pytest.raises(SizeBoundExceeded, match="116 elements"):
        intersection_lattice(capped(inst, cap_lattice=115))
    with pytest.raises(SizeBoundExceeded, match="at least 2\\^4"):
        flat_counts(capped(inst, cap_lattice=15))


def _characteristic_polynomial(inst):
    """sum over flats X of mu(V, X) t^(dim X), coefficients by ascending
    power, from the order alone; dim X is over C (rational dimension
    divided by the scalar degree)."""
    poset = intersection_lattice(inst)
    # elements come by decreasing dimension, so index 0 is V and every
    # element comes after all elements below it
    mu = []
    for x in range(len(poset)):
        mu.append(1 if x == 0 else -sum(mu[y] for y in range(x) if poset.leq(y, x)))
    coeffs = [0] * (inst.n * inst.rep.dim_v + 1)
    for m, flat in zip(mu, poset.elements):
        coeffs[flat.dim // inst.rep.scalar_degree] += m
    return coeffs


@pytest.mark.parametrize(
    "order, n", [(2, 3), (2, 4), (3, 3), (4, 3)], ids=["z2-n3", "z2-n4", "z3-n3", "z4-n3"]
)
def test_lattice_characteristic_polynomial_is_dowlings(order, n):
    """Dowling: chi(t) = prod_{i<n} (t - 1 - i |G|) for the lattice of G
    acting by one faithful character.  This checks the block-mask order of
    `intersection_lattice` without any subspace comparison."""
    inst = make_abelian_instance([order], [[1]], n)
    expected = [1]
    for i in range(n):
        root = 1 + i * order
        expected = [
            (expected[p - 1] if p else 0) - root * (expected[p] if p < len(expected) else 0)
            for p in range(len(expected) + 1)
        ]
    assert _characteristic_polynomial(inst) == expected
    if (order, n) == (2, 4):
        assert expected == [105, -176, 86, -16, 1]


# -- blocks ---------------------------------------------------------------------------


def test_blocks_for_single_factor(z3):
    inst = z3.with_n(1)
    blocks = building_blocks(inst)
    # one block per closed subgroup other than {e}
    assert [b.subgroup.elements for b in blocks] == [(0, 1, 2)]
    assert blocks[0].indices == (1,)


def test_z2_blocks_are_the_five_expected(z2):
    blocks = building_blocks(z2)
    described = {b.describe() for b in blocks}
    assert described == {
        "H^{0}(1^0,2^0)",
        "H^{0}(1^0,2^1)",
        "H^{0,1}(1^0)",
        "H^{0,1}(2^0)",
        "H^{0,1}(1^0,2^0)",
    }


@pytest.mark.parametrize("path", sorted(INSTANCES.glob("*.json")), ids=lambda p: p.stem)
def test_block_count_is_the_number_of_blocks(path):
    inst = load_instance(path, n_override=1)
    for n in (1, 2, 3):
        inst = inst.with_n(n)
        assert block_count(inst) == len(building_blocks(inst))


def test_block_subspace_dimension_identity():
    for inst in make_n3_grid() + [make_s3_instance(3)]:
        for b in building_blocks(inst):
            dim = block_subspace(inst, b).dim
            free = (inst.n - len(b.indices)) * inst.block_width
            assert dim == inst.rep.fix(b.subgroup).dim + free


def test_block_subspace_injective_on_output(z2, z3, z4, klein, s3):
    """`building_blocks` does not deduplicate: its docstring proves that
    distinct normal forms have distinct subspaces, and this checks it."""
    for inst in [z2, z3, z4, klein, s3] + make_n3_grid() + [make_s3_instance(3)]:
        blocks = building_blocks(inst)
        seen = {block_subspace(inst, b).basis for b in blocks}
        assert len(seen) == len(blocks)


def test_normal_forms_are_unique_per_subspace(z4, klein, s3):
    """No two distinct normal forms share a subspace: the emitted block list
    has exactly one entry per (label, index set, coset tail) choice."""
    from math import comb

    for inst in (z4, klein, s3):
        trivial = Subgroup((inst.group.identity,))
        expected = 0
        for K in closed_subgroups(inst).members:
            q = inst.group.order // len(K)
            for k in range(1, inst.n + 1):
                if k == 1 and K == trivial:
                    continue
                expected += comb(inst.n, k) * q ** (k - 1)
        assert len(building_blocks(inst)) == expected


def test_full_group_block_is_zero_coordinates(klein):
    whole = Subgroup((0, 1, 2, 3))
    blocks = [b for b in building_blocks(klein) if b.subgroup == whole]
    by_indices = {b.indices: b for b in blocks}
    assert set(by_indices) == {(1,), (2,), (1, 2)}
    both = block_subspace(klein, by_indices[(1, 2)])
    assert both.dim == 0


def test_conjugation_identification_of_blocks(s3):
    """A block written with first coset gK equals the normal form over the
    conjugate subgroup; both name the same subspace."""
    G = s3.group
    for K in closed_subgroups(s3).members:
        for g in G.elements():
            for g2 in G.elements():
                lhs = free_factor_subspace(s3, s3.rep.fix(K).echelon, (0, 1), (g, g2))
                Kg = conjugate_subgroup(G, K, g)
                rhs = free_factor_subspace(
                    s3, s3.rep.fix(Kg).echelon, (0, 1), (0, G.mul(g2, G.inv(g)))
                )
                assert lhs == rhs
                recon = is_block_subspace(s3, lhs)
                assert recon is not None
                assert block_subspace(s3, recon) == lhs


def test_a_line_fixed_by_no_subgroup_is_no_block(s3):
    """On S3 at n = 2, W = L + V with L a line of the first factor: the line
    (1, 0) is the fixed space of no subgroup, so W is no block, while
    (1, 2) is the fixed line of the transposition {0, 2}."""
    V = ((0, 0, 1, 0), (0, 0, 0, 1))
    W = Subspace.from_spanning(4, ((1, 0, 0, 0),) + V)
    assert is_block_subspace(s3, W) is None
    W = Subspace.from_spanning(4, ((1, 2, 0, 0),) + V)
    assert is_block_subspace(s3, W).describe() == "H^{0,2}(1^0)"


def test_a_tied_line_is_a_block_only_over_a_fixed_line(s3):
    """On S3 at n = 2, W = {(x, g x) : x in L}.  With L = (1, 0), the fixed
    space of no subgroup, W is no block: its candidate H^{e}(1^0,2^0) is
    the whole diagonal.  No element doubles a vector, so (x, 2x) is none
    either; over the fixed line (1, 2) of {0, 2}, W is a block."""
    assert is_block_subspace(s3, Subspace.from_spanning(4, [(1, 0, 1, 0)])) is None
    assert is_block_subspace(s3, Subspace.from_spanning(4, [(1, 0, 2, 0)])) is None
    W = Subspace.from_spanning(4, [(1, 2, 1, 2)])
    assert is_block_subspace(s3, W).describe() == "H^{0,2}(1^0,2^0)"


def test_diagonal_block_is_the_identity_graph(z2):
    diag = next(
        b
        for b in building_blocks(z2)
        if b.subgroup == Subgroup((0,)) and b.cosets == (0, 0)
    )
    assert block_subspace(z2, diag) == Subspace.from_spanning(2, [(1, 1)])


# -- the combinatorial order vs the geometric one ------------------------------------------


def grid_instances(z2, z3, z4, klein, s3):
    return (z2, z3, z4, klein, s3)


def test_block_leq_reflexive(z2, klein):
    for inst in (z2, klein):
        for b in building_blocks(inst):
            assert block_leq(inst, b, b)


def test_block_leq_agrees_with_containment_everywhere(z2, z3, z4, klein, s3):
    """At n=2 and on the n=3 grid; S3 at n=3 has nonabelian blocks with three
    indices, where `block_leq`'s one-pass reduction is used."""
    n3 = make_n3_grid() + [make_s3_instance(3)]
    for inst in grid_instances(z2, z3, z4, klein, s3) + tuple(n3):
        blocks = building_blocks(inst)
        spaces = [block_subspace(inst, b) for b in blocks]
        for i, b1 in enumerate(blocks):
            for j, b2 in enumerate(blocks):
                assert block_leq(inst, b1, b2) == spaces[i].contains(spaces[j])


def test_comparable_blocks_have_comparable_classes(s3):
    conj = s3.conj_classes()
    blocks = building_blocks(s3)
    for b1 in blocks:
        for b2 in blocks:
            if block_leq(s3, b1, b2):
                assert conj.leq(b1.subgroup, b2.subgroup)


def test_specific_containment_in_z2(z2):
    blocks = {b.describe(): b for b in building_blocks(z2)}
    assert block_leq(z2, blocks["H^{0}(1^0,2^0)"], blocks["H^{0,1}(1^0,2^0)"])
    assert not block_leq(z2, blocks["H^{0,1}(1^0,2^0)"], blocks["H^{0}(1^0,2^0)"])


def test_compatibility_rules(klein):
    inst = klein
    whole = Subgroup((0, 1, 2, 3))
    h1 = Subgroup((0, 2))
    blocks = building_blocks(inst)
    g1 = next(b for b in blocks if b.subgroup == whole and b.indices == (1,))
    g2 = next(b for b in blocks if b.subgroup == whole and b.indices == (2,))
    h1_2 = next(b for b in blocks if b.subgroup == h1 and b.indices == (2,))
    g12 = next(b for b in blocks if b.subgroup == whole and b.indices == (1, 2))
    assert not blocks_compatible(inst, g1, g2)  # disjoint but both full-group
    assert blocks_compatible(inst, g1, h1_2)    # disjoint, one label proper
    assert blocks_compatible(inst, g1, g12)     # comparable


def assert_table_matches_the_pairwise_oracles(inst):
    blocks = building_blocks(inst)
    compat, up = _compatibility(inst)
    for k, b in enumerate(blocks):
        for j, c in enumerate(blocks):
            assert bool(up[k] >> j & 1) == block_leq(inst, c, b), (k, j)
            assert bool(compat[k] >> j & 1) == (
                j != k and blocks_compatible(inst, b, c)
            ), (k, j)


@settings(max_examples=25, deadline=None)
@given(small_abelian_instances())
def test_compatibility_table_matches_the_pairwise_oracles(inst):
    """Every bit of the mask table equals `block_leq` (up) or
    `blocks_compatible` (compat), pair by pair."""
    assert_table_matches_the_pairwise_oracles(inst)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_s3_instance(1),
        lambda: make_s3_instance(2),
        lambda: make_s3_instance(3),
        lambda: load_instance(INSTANCES / "z2x4_chains.json", n_override=2),
        lambda: load_instance(INSTANCES / "z4_plane.json", n_override=3),
        lambda: z4_plane_from_matrices(3),
        lambda: load_instance(INSTANCES / "klein4.json", n_override=3),
        lambda: make_nonabelian_instance("D4", 2),
        lambda: make_nonabelian_instance("Q8", 2),
        lambda: make_nonabelian_instance("A4", 2),
        lambda: make_nonabelian_instance("D4", 3),
        lambda: make_nonabelian_instance("S4", 2),
    ],
    ids=[
        "s3-n1", "s3-n2", "s3-n3", "chains8-n2", "z4_plane-n3",
        "z4_plane-matrices-n3", "klein4-n3", "d4-n2", "q8-n2", "a4-n2", "d4-n3",
        "s4-n2",
    ],
)
def test_compatibility_table_matches_the_pairwise_oracles_on_fixed_cases(make):
    """The containment masks come from a recurrence on the block with its
    first index dropped, relabelled by a conjugate of its label, and the
    coset test is memoised per (index, label, coset): z4_plane has a label
    with two cosets, klein4 has three labels of index 2, and the nonabelian
    groups have labels that conjugation moves."""
    assert_table_matches_the_pairwise_oracles(make())


def test_blocks_come_out_in_sort_key_order():
    """`building_blocks` is made in `Block.sort_key` order and sorts
    nothing, so the order is checked here, with the number of blocks."""
    nonabelian = [make_nonabelian_instance(name, 3) for name in ("D4", "Q8", "A4", "S4")]
    for inst in make_n3_grid() + nonabelian:
        blocks = building_blocks(inst)
        keys = [b.sort_key for b in blocks]
        assert keys == sorted(keys)
        assert len(blocks) == block_count(inst)


def test_the_clique_count_builds_no_block(monkeypatch):
    """`count_nested_sets` reads the integer codes alone; S3 at n = 3 has
    labels that conjugation moves."""
    from dowlingnest import arrangement

    def refuse(*args, **kwargs):
        raise AssertionError("a Block was built")

    monkeypatch.setattr(arrangement, "Block", refuse)
    assert count_nested_sets(make_s3_instance(3)) == 10159


def z4_plane_from_matrices(n):
    """The z4_plane instance given by the matrix of its generator, so that
    closure runs on fixed spaces rather than on characters."""
    inst = load_instance(INSTANCES / "z4_plane.json", n_override=n)
    rep = Representation.from_matrices(inst.group, {1: matrices_of(inst.rep)[1].entries})
    assert rep.char_exponents is None
    return ProblemInstance(n, inst.group, rep)


# -- nestedness --------------------------------------------------------------------------


def definition_nested(inst, blocks, all_block_spaces):
    """Independent oracle straight from the definition, using only subspace
    arithmetic: for every antichain (under containment) of size >= 2 the
    codimensions add and the intersection is not a block subspace."""
    spaces = [block_subspace(inst, b) for b in blocks]
    m = len(blocks)
    for size in range(2, m + 1):
        for subset in combinations(range(m), size):
            antichain = True
            for a, b in combinations(subset, 2):
                if spaces[a].contains(spaces[b]) or spaces[b].contains(spaces[a]):
                    antichain = False
                    break
            if not antichain:
                continue
            meet = Subspace.full(inst.ambient_dim)
            codims = 0
            for i in subset:
                meet = meet.intersect(spaces[i])
                codims += spaces[i].codim
            if meet.codim != codims:
                return False
            if meet.basis in all_block_spaces:
                return False
    return True


def test_empty_and_singletons_are_nested(z2):
    assert is_nested(z2, ())
    for b in building_blocks(z2):
        assert is_nested(z2, (b,))


def test_two_full_group_blocks_are_not_nested(z2):
    whole = Subgroup((0, 1))
    blocks = [
        b for b in building_blocks(z2) if b.subgroup == whole and len(b.indices) == 1
    ]
    assert len(blocks) == 2
    assert not is_nested(z2, blocks)


def test_nested_enumeration_matches_bitmask_brute_force(z2, z3):
    for inst in (z2, z3):
        blocks = building_blocks(inst)
        all_spaces = {block_subspace(inst, b).basis for b in blocks}
        brute = set()
        for mask in range(1, 1 << len(blocks)):
            subset = tuple(
                blocks[i] for i in range(len(blocks)) if mask >> i & 1
            )
            if definition_nested(inst, subset, all_spaces):
                brute.add(frozenset(subset))
        enumerated = {frozenset(ns.blocks) for ns in enumerate_nested_sets(inst)}
        assert enumerated == brute


def test_fast_path_agrees_with_full_check(z2, z3, z4, klein):
    """Documents that pairwise compatibility suffices on these instances."""
    for inst in (z2, z3, z4, klein):
        blocks = building_blocks(inst)
        all_spaces = {block_subspace(inst, b).basis for b in blocks}
        limit = min(len(blocks), 12)
        for mask in range(1, 1 << limit):
            subset = tuple(blocks[i] for i in range(limit) if mask >> i & 1)
            if len(subset) < 2:
                continue
            fast = pairwise_compatible(inst, subset)
            full = is_nested(inst, subset)
            if fast != full:
                assert definition_nested(inst, subset, all_spaces) == full
            assert fast == full


def test_enumerated_sets_pass_the_antichain_oracle_at_n3(s3):
    """Every set the clique search lists passes `is_nested`, which checks
    every antichain by subspace arithmetic, on the n = 3 grid and on s3."""
    for inst in make_n3_grid() + [s3]:
        sets = enumerate_nested_sets(inst)
        assert sets
        for ns in sets:
            assert is_nested(inst, ns.blocks), ns


@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: make_abelian_instance([2], [[1]], 5), 25513),
        (lambda: make_s3_instance(3), 10159),
    ],
    ids=["z2-n5", "s3-n3"],
)
def test_sampled_sets_pass_the_antichain_oracle(make, count):
    inst = make()
    sets = enumerate_nested_sets(inst)
    assert len(sets) == count
    for ns in random.Random(0).sample(sets, 200):
        assert is_nested(inst, ns.blocks), ns


def test_nested_covers_match_the_poset_oracle(z2, z3, z4, klein, z4_plane, s3):
    """The export's covers, one block added at a time, equal the cover search
    over the full inclusion order."""
    z2_n3 = make_abelian_instance([2], [[1]], 3)
    for inst in (z2, z3, z4, klein, z4_plane, s3, z2_n3):
        sets = enumerate_nested_sets(inst)
        assert tuple(nested_covers(sets)) == nested_sets_poset(sets).covers()


@settings(max_examples=15, deadline=None)
@given(small_abelian_instances(), st.randoms(use_true_random=False))
def test_clique_count_agrees_with_forests_and_series(inst, rng):
    """The clique search counts what the forest and series routes count, and
    its sets pass `is_nested` (all of them, or 60 drawn when there are more,
    since the definition check is the slow part at n = 3).  At n <= 2 every
    `selftest` check passes as well."""
    sets = enumerate_nested_sets(inst)
    assert len(sets) == len(enumerate_forests(inst))
    assert len(sets) == nested_count_via_series(inst, inst.n)
    assert len(sets) == count_nested_sets(inst)
    for ns in rng.sample(sets, min(len(sets), 60)):
        assert is_nested(inst, ns.blocks), ns
    if inst.n <= 2:
        lines = []
        assert run_selftest(inst, emit=lines.append), lines
        assert len(lines) == len(CHECKS)
        assert all(line.startswith("PASS ") for line in lines), lines


def test_nested_sets_are_downward_closed(klein):
    sets = enumerate_nested_sets(klein)
    enumerated = {frozenset(ns.blocks) for ns in sets}
    for ns in sets:
        for size in range(1, len(ns.blocks)):
            for subset in combinations(ns.blocks, size):
                assert frozenset(subset) in enumerated


def test_single_factor_single_nested_set():
    inst = make_abelian_instance([2], [[1]], 1)
    sets = enumerate_nested_sets(inst)
    assert len(sets) == 1
    assert len(sets[0].blocks) == 1


def test_block_reconstruction_round_trip(z2, z3, klein, s3, z4_plane, chains8):
    for inst in (z2, z3, klein, s3, z4_plane, chains8.with_n(2)):
        blocks = building_blocks(inst)
        for b in blocks:
            assert is_block_subspace(inst, block_subspace(inst, b)) == b
        block_keys = {block_subspace(inst, b).basis for b in blocks}
        for flat in intersection_lattice(inst).elements:
            recon = is_block_subspace(inst, flat)
            assert (recon is not None) == (flat.basis in block_keys)


def test_enumeration_is_in_lexicographic_block_order(z3, klein, s3):
    """Depth-first lexicographic order: a set comes right before its
    extensions, so the block-index tuples are sorted as sequences."""
    for inst in (z3, klein, s3):
        position = {b: i for i, b in enumerate(building_blocks(inst))}
        keys = [tuple(position[b] for b in ns) for ns in enumerate_nested_sets(inst)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_nested_and_forest_routes_build_no_subspace_of_v_n(monkeypatch):
    """Neither enumeration builds a subspace of V^n: with the one builder
    made to raise, both still run on fresh instances."""
    from dowlingnest import arrangement

    def refuse(*args):
        raise AssertionError("free_factor_subspace called")

    monkeypatch.setattr(arrangement, "free_factor_subspace", refuse)
    for inst, count in (
        (make_abelian_instance([2, 2], [[1, 0], [0, 1]], 3), 3493),
        (make_s3_instance(2), 215),
    ):
        assert len(enumerate_nested_sets(inst)) == count
        assert len(enumerate_forests(inst)) == count


def test_enumeration_is_deterministic(z3):
    first = enumerate_nested_sets(z3)
    second = enumerate_nested_sets(z3)
    assert first == second


def test_size_cap_raises(z2):
    from dowlingnest import SizeBoundExceeded

    with pytest.raises(SizeBoundExceeded):
        enumerate_nested_sets(capped(z2, cap_nested=3))
    with pytest.raises(SizeBoundExceeded):
        intersection_lattice(capped(z2, cap_lattice=2))


def test_nested_enumeration_refuses_by_the_count_before_any_block(monkeypatch):
    """Z/2 at n=3 has 17 blocks, under a cap of 50, and 93 nested sets,
    over it: the exact count refuses before a block is built."""
    from dowlingnest import SizeBoundExceeded, arrangement

    inst = make_abelian_instance([2], [[1]], 3)
    assert block_count(inst) == 17
    assert len(enumerate_nested_sets(capped(inst, cap_nested=93))) == 93

    def refuse(*args, **kwargs):
        raise AssertionError("a block was built before the count was checked")

    monkeypatch.setattr(arrangement, "building_blocks", refuse)
    with pytest.raises(SizeBoundExceeded, match="93 nested sets"):
        enumerate_nested_sets(capped(inst, cap_nested=50))


BUNDLED = ("z2", "z3", "z4", "z4_plane", "klein4", "s3", "z2x4_chains")


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in BUNDLED for n in (1, 2, 3) if (name, n) != ("z2x4_chains", 3)]
    + [("z2", 6)],
)
def test_clique_count_equals_the_enumeration_and_the_forest_count(name, n):
    """Z/2 at n = 6 has 615,849 nested sets."""
    inst = load_instance(INSTANCES / f"{name}.json", n_override=n)
    count = count_nested_sets(inst)
    assert count == len(enumerate_nested_sets(inst)) == count_forests(inst)
    if (name, n) == ("z2", 6):
        assert count == 615849


@settings(max_examples=25, deadline=None)
@given(st.one_of(small_abelian_instances(), st.integers(1, 3).map(make_s3_instance)))
def test_memoised_clique_count_equals_the_walk_and_the_forest_count(inst):
    """The memo per candidate mask changes the cost, not the count: it
    equals the unmemoised walk over the same table and `count_forests`."""
    assert count_nested_sets(inst) == clique_count_by_walk(inst) == count_forests(inst)


def test_clique_count_of_s3_at_n4():
    inst = load_instance(INSTANCES / "s3.json", n_override=4)
    assert count_nested_sets(inst) == 677183 == count_forests(inst)


def test_clique_count_refuses_by_the_exact_count_before_any_block(monkeypatch):
    """Z/2 at n=3 has 93 nested sets: a cap of 93 passes, and 92 is refused
    before a block is built, by the count and by the stream when it is
    called, before a set is drawn."""
    from dowlingnest import arrangement

    inst = make_abelian_instance([2], [[1]], 3)
    assert count_nested_sets(capped(inst, cap_nested=93)) == 93

    def refuse(*args, **kwargs):
        raise AssertionError("a block was built before the count was checked")

    monkeypatch.setattr(arrangement, "building_blocks", refuse)
    with pytest.raises(SizeBoundExceeded, match="93 nested sets"):
        count_nested_sets(capped(inst, cap_nested=92))
    with pytest.raises(SizeBoundExceeded, match="93 nested sets"):
        iter_nested_sets(capped(inst, cap_nested=92))
