"""Exact subspace arithmetic and representation fixed spaces."""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dowlingnest import (
    AmbientMismatch,
    FiniteGroup,
    InstanceError,
    ProblemInstance,
    RMatrix,
    Representation,
    Subgroup,
    Subspace,
    closed_subgroups,
    closure_phi,
    kernel,
    parse_instance,
)
from dowlingnest import arrangement
from dowlingnest.arrangement import flat_counts
from dowlingnest.instancefile import load_instance
from dowlingnest.linalg import form_product, integer_echelon, integer_form, pivot_columns, rref
from dowlingnest.reps import cyclotomic_polynomial, fix_subspace, pointwise_stabilizer

from conftest import (
    deleted_permutation_matrix,
    make_abelian_instance,
    make_s3_instance,
    s3_cayley_table,
    small_abelian_instances,
)
from oracles import (
    character_exponents,
    character_matrices,
    closure_by_definition,
    dense_product,
    fix_subspace_via_kernels,
    gauss_jordan_rref,
    image_under,
    is_identity,
    pointwise_stabilizer_by_definition,
    representation_by_matrices,
    zero_space,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_kernel_of_zero_and_identity():
    assert kernel(RMatrix.zero(3, 3)) == Subspace.full(3)
    assert kernel(RMatrix.identity(3)) == zero_space(3)


def test_kernel_of_diagonal():
    M = RMatrix(((-2, 0), (0, 0)))
    assert kernel(M) == Subspace.from_spanning(2, [(0, 1)])


def test_intersect_with_full_and_self_sum():
    A = Subspace.from_spanning(3, [(1, 2, 3)])
    assert A.intersect(Subspace.full(3)) == A
    assert A.sum(A) == A


def test_axes_in_the_plane():
    x = Subspace.from_spanning(2, [(1, 0)])
    y = Subspace.from_spanning(2, [(0, 1)])
    assert x.intersect(y) == zero_space(2)
    assert x.sum(y) == Subspace.full(2)


def test_ambient_mismatch_raises():
    with pytest.raises(AmbientMismatch):
        Subspace.full(2).sum(Subspace.full(3))


small_fracs = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def random_subspace(draw, ambient=4, max_vecs=3):
    k = draw(st.integers(min_value=0, max_value=max_vecs))
    vecs = [
        tuple(draw(small_fracs) for _ in range(ambient)) for _ in range(k)
    ]
    return Subspace.from_spanning(ambient, vecs)


@settings(max_examples=60, deadline=None)
@given(random_subspace(), random_subspace())
def test_grassmann_identity(A, B):
    assert A.dim + B.dim == A.sum(B).dim + A.intersect(B).dim


@settings(max_examples=60, deadline=None)
@given(random_subspace())
def test_canonical_form_idempotent(A):
    assert Subspace.from_spanning(A.ambient_dim, A.basis) == A
    assert A.perp().perp() == A


@settings(max_examples=60, deadline=None)
@given(random_subspace(), random_subspace())
def test_containment_consistent_with_sum(A, B):
    assert A.contains(B) == (A.sum(B) == A)


small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def integer_rows(draw):
    ambient = draw(st.integers(min_value=1, max_value=5))
    return draw(st.lists(st.tuples(*[small_ints] * ambient), max_size=4))


@settings(max_examples=150, deadline=None)
@given(integer_rows())
def test_integer_echelon_scales_the_rref(rows):
    """Each row is the Gauss-Jordan RREF row times a positive integer, and
    the rows are primitive; `Subspace.echelon`, read off the RREF of a
    space built by `rref`, is the same tuple."""
    echelon = integer_echelon(rows)
    reduced, pivots = gauss_jordan_rref(rows)
    if rows:
        assert Subspace.from_spanning(len(rows[0]), rows).echelon == echelon
    assert len(echelon) == len(reduced)
    for row, ref, p in zip(echelon, reduced, pivots):
        assert all(type(x) is int for x in row)
        assert row[p] > 0 and gcd(*row) == 1
        assert row == tuple(row[p] * x for x in ref)
    assert pivot_columns(echelon) == tuple(pivots)


@st.composite
def rational_matrices(draw, max_rows=4, max_cols=5):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    return [[draw(small_fracs) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rref_and_kernel_match_gauss_jordan(rows):
    """`rref` equals Gauss-Jordan over Fraction; the kernel's basis is in
    that RREF, solves M v = 0 and has cols - rank vectors, so it is the
    canonical basis of the kernel.  The check calls no `integer_echelon`."""
    cols = len(rows[0])
    reduced, pivots = gauss_jordan_rref(rows)
    got = rref(rows)
    assert got == (reduced, pivots)
    basis = kernel(RMatrix(rows)).basis
    assert all(type(x) is Fraction for part in (got[0], basis) for v in part for x in v)
    assert len(basis) == cols - len(pivots)
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
    assert gauss_jordan_rref(basis)[0] == basis
    assert Subspace.from_spanning(cols, rows).perp().basis == basis


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.integers(min_value=0, max_value=4), st.data())
def test_matrix_product_matches_the_fraction_triple_loop(a, cols, data):
    inner = len(a[0])
    b = [[data.draw(small_fracs) for _ in range(cols)] for _ in range(inner)]
    expected = tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols))
        for i in range(len(a))
    )
    got = RMatrix(a).mul(RMatrix(b)).entries
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)


def test_fix_subspace_trivial_subgroup_is_everything(klein):
    assert klein.rep.fix(Subgroup((0,))) == Subspace.full(2)


def test_klein_fix_examples(klein):
    # rho(1,0) = diag(-1, 1): the second axis is fixed
    h1 = Subgroup((0, 2))
    assert klein.rep.fix(h1) == Subspace.from_spanning(2, [(0, 1)])
    assert klein.rep.matrix(2).entries == (
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    whole = Subgroup((0, 1, 2, 3))
    assert klein.rep.fix(whole).dim == 0


def test_fix_generator_independence(s3):
    for H in s3.subgroups():
        assert fix_subspace(s3.rep, H.elements) == fix_subspace(
            s3.rep, _generators_of(s3.group, H)
        )


def _generators_of(G, H):
    from dowlingnest.groups import subgroup_closure

    gens = []
    for g in H:
        if subgroup_closure(G, gens).elements == H.elements:
            break
        gens.append(g)
    current = subgroup_closure(G, gens)
    for g in H:
        if current.elements == H.elements:
            break
        gens.append(g)
        current = subgroup_closure(G, gens)
    return gens or [G.identity]


def test_character_fix_agrees_with_kernel_route():
    for inst in (
        make_abelian_instance([3], [[1]], 1),
        make_abelian_instance([4], [[1], [2]], 1),
        make_abelian_instance([2, 2], [[1, 0], [0, 1]], 1),
    ):
        for H in inst.subgroups():
            assert fix_subspace(inst.rep, H.elements) == fix_subspace_via_kernels(
                inst.rep, H.elements
            )


def test_matrix_fix_agrees_with_kernel_route(s3, chains8):
    """The stacked-kernel fixed space equals the meet of the kernels, and on
    chains8 given by bare matrices also the coordinate route."""
    plain = Representation(
        chains8.group, chains8.rep.dim_v, chains8.rep.scalar_degree, chains8.rep.matrices
    )
    for H in chains8.subgroups():
        assert fix_subspace(plain, H.elements) == fix_subspace(chains8.rep, H.elements)
    for rep, subgroups in ((s3.rep, s3.subgroups()), (plain, chains8.subgroups())):
        for H in subgroups:
            assert fix_subspace(rep, H.elements) == fix_subspace_via_kernels(
                rep, H.elements
            )


def test_conjugation_covariance(s3):
    rep = s3.rep
    for H in s3.subgroups():
        for g in s3.group.elements():
            from dowlingnest import conjugate_subgroup

            conj_fix = rep.fix(conjugate_subgroup(s3.group, H, g))
            assert conj_fix == image_under(rep.fix(H), rep.matrix(g))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]


def test_character_realization_is_faithful_rational_homomorphism():
    G = FiniteGroup.from_abelian([4])
    rep = Representation.from_characters(G, [[1]])
    assert rep.scalar_degree == 2  # phi(4)
    assert rep.matrix_dim == 2
    i_mat = rep.matrix(1)
    assert i_mat.mul(i_mat).entries == rep.matrix(2).entries
    assert is_identity(i_mat.mul(i_mat).mul(i_mat).mul(i_mat))


def test_largest_cyclic_group_loads_quickly():
    """Z/63 realizes its character through 63 powers of a 36 x 36 companion
    matrix; with the homomorphism check on those matrices, in Fraction
    arithmetic the load took about 24 s, on integer numerators about
    0.6 s, and with the powers taken by column shifts about 0.13 s.  The
    check now runs on the exponents, and the powers are built on first
    use, here by `matrix`."""
    start = time.perf_counter()
    inst = parse_instance(
        {"n": 1, "group": {"abelian": [63]}, "representation": {"characters": [[1]]}}
    )
    assert time.perf_counter() - start < 10
    assert inst.rep.scalar_degree == 36
    assert is_identity(inst.rep.matrix(1).mul(inst.rep.matrix(62)))


def test_faithless_characters_rejected():
    G = FiniteGroup.from_abelian([4])
    with pytest.raises(InstanceError, match="faithful"):
        Representation.from_characters(G, [[2]])


def test_trivial_component_rejected():
    G = FiniteGroup.from_abelian([2])
    with pytest.raises(InstanceError, match="trivial"):
        Representation.from_characters(G, [[1], [0]])


def _outcome(build):
    """The forms of the representation built, or the message it is refused with."""
    try:
        return build().forms
    except InstanceError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 6), min_size=1, max_size=2).flatmap(
        lambda factors: st.tuples(
            st.just(factors),
            st.lists(
                st.tuples(*(st.integers(0, d - 1) for d in factors)).map(list),
                min_size=1,
                max_size=3,
            ),
        )
    )
)
def test_character_checks_agree_with_the_form_route(case):
    """Character input checked on its exponents accepts exactly what the
    old route, one integer form per element checked with `form_product`,
    accepts, refuses the rest with the same message, and builds the same
    forms.  Unfaithful characters and trivial summands are drawn too."""
    factors, characters = case
    G = FiniteGroup.from_abelian(factors)
    exps = character_exponents(G, characters)
    assert _outcome(lambda: Representation.from_characters(G, characters)) == _outcome(
        lambda: representation_by_matrices(G, exps)
    )


@pytest.mark.parametrize(
    "factors, characters",
    [([2, 4], [[0, 1], [1, 2], [1, 0], [0, 2]]), ([6], [[1], [2]]), ([2, 2], [[1, 0], [0, 1]])],
)
def test_corrupted_exponents_are_refused_as_by_forms(factors, characters):
    """A change to any one exponent of any element (the identity too) is
    refused on the exponents with the message the form route gives."""
    G = FiniteGroup.from_abelian(factors)
    exps = character_exponents(G, characters)
    degree = len(cyclotomic_polynomial(G.exponent())) - 1
    for g in range(G.order):
        for j in range(len(characters)):
            bad = [list(row) for row in exps]
            bad[g][j] += 1
            bad = tuple(map(tuple, bad))
            by_exponents = _outcome(
                lambda: Representation(G, len(characters), degree, char_exponents=bad)
            )
            assert by_exponents == _outcome(lambda: representation_by_matrices(G, bad))
            assert isinstance(by_exponents, str)


def test_character_instances_load_and_close_without_form_products(monkeypatch):
    """Loading every bundled character instance and closing its subgroups
    takes no product of forms and builds no form."""

    def refuse(*args, **kwargs):
        raise AssertionError("form product during set-up")

    monkeypatch.setattr("dowlingnest.reps.form_product", refuse)
    monkeypatch.setattr("dowlingnest.linalg.form_product", refuse)
    paths = [
        path
        for path in sorted(INSTANCES.glob("*.json"))
        if "characters" in json.loads(path.read_text())["representation"]
    ]
    assert len(paths) == 6
    for path in paths:
        inst = load_instance(path)
        assert closed_subgroups(inst).members
        assert inst.rep._forms is None


def test_matrix_extension_needs_generators():
    _, = (make_s3_instance(1),)  # full matrices work
    from conftest import deleted_permutation_matrix, s3_cayley_table

    perms, table = s3_cayley_table()
    G = FiniteGroup.from_cayley(table)
    # a transposition and a 3-cycle generate S3
    gens = {2: deleted_permutation_matrix(perms[2]), 3: deleted_permutation_matrix(perms[3])}
    rep = Representation.from_matrices(G, gens)
    full = Representation.from_matrices(
        G, {i: deleted_permutation_matrix(p) for i, p in enumerate(perms)}
    )
    assert all(rep.matrix(g) == full.matrix(g) for g in G.elements())
    with pytest.raises(InstanceError, match="generating"):
        Representation.from_matrices(G, {2: deleted_permutation_matrix(perms[2])})


@pytest.mark.parametrize("name", ["klein", "s3", "chains8"])
def test_every_corrupted_matrix_is_rejected(request, name):
    """The homomorphism check runs only on a generating set, yet a change
    to any one element's matrix is caught, in its first or its last row."""
    rep = request.getfixturevalue(name).rep
    for g in range(rep.group.order):
        for corner in (0, -1):
            matrices = list(rep.matrices)
            entries = [list(r) for r in matrices[g].entries]
            entries[corner][corner] += 1
            matrices[g] = RMatrix(entries)
            with pytest.raises(InstanceError, match="homomorphism"):
                Representation(
                    rep.group,
                    rep.dim_v,
                    rep.scalar_degree,
                    matrices,
                    rep.characters,
                    rep.char_exponents,
                )


@pytest.mark.parametrize("a_first", [True, False])
def test_a_map_twisted_between_generators_is_rejected(a_first):
    """rho(x, y) = A^x B^y (or B^y A^x) with involutions A, B that do not
    commute: the rule holds when the second factor is multiplied on, so
    the check must use both generators of the Klein group."""
    G = FiniteGroup.from_abelian([2, 2])
    A = RMatrix(((1, 0), (0, -1)))
    B = RMatrix(((0, 1), (1, 0)))
    one = RMatrix.identity(2)
    matrices = []
    for g in range(G.order):
        x, y = G.id_to_tuple(g)
        ax, by = (A if x else one), (B if y else one)
        matrices.append(ax.mul(by) if a_first else by.mul(ax))
    with pytest.raises(InstanceError, match="homomorphism"):
        Representation(G, dim_v=2, scalar_degree=1, matrices=matrices)


def test_non_homomorphic_matrices_rejected():
    G = FiniteGroup.from_abelian([2])
    with pytest.raises(InstanceError, match="homomorphism"):
        Representation(
            G,
            dim_v=1,
            scalar_degree=1,
            matrices=(RMatrix(((1,),)), RMatrix(((2,),))),
        )


def _rational_klein_generators(G, twist=0):
    """diag(1, -1) and diag(-1, 1) conjugated by ((1, 1), (0, 3)), given on
    the two generators of the Klein group: entries with denominator 3."""
    P = RMatrix(((1, 1), (0, 3)))
    P_inv = RMatrix(((1, Fraction(-1, 3)), (0, Fraction(1, 3))))
    a = P.mul(RMatrix(((1, 0), (0, -1)))).mul(P_inv)
    b = P.mul(RMatrix(((-1, 0), (0, 1)))).mul(P_inv)
    if twist:
        b = RMatrix(((b.entries[0][0] + twist, b.entries[0][1]), b.entries[1]))
    ids = {G.id_to_tuple(g): g for g in range(G.order)}
    return {ids[(1, 0)]: a, ids[(0, 1)]: b}


def test_rational_matrices_are_checked_over_their_denominators():
    G = FiniteGroup.from_abelian([2, 2])
    rep = Representation.from_matrices(G, _rational_klein_generators(G))
    assert any(x.denominator == 3 for m in rep.matrices for row in m.entries for x in row)
    for twist in (Fraction(1, 3), 1):
        with pytest.raises(InstanceError, match="homomorphism"):
            Representation.from_matrices(G, _rational_klein_generators(G, twist))


def test_non_homomorphic_generator_is_rejected_by_from_matrices():
    """rho(g)^2 = 1/4 for the generator of Z/2, not rho(e) = 1."""
    G = FiniteGroup.from_abelian([2])
    with pytest.raises(InstanceError, match="homomorphism"):
        Representation.from_matrices(G, {1: RMatrix(((Fraction(1, 2),),))})


# -- integer forms against the Fraction oracles ---------------------------------


@st.composite
def sparse_pairs(draw, values):
    """Matrices A (r x k) and B (k x c), about half of the entries 0 and
    many 1, the others drawn from `values`."""
    entries = st.one_of(st.just(0), st.just(0), st.just(1), values)
    r, k, c = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    return tuple(
        RMatrix([[draw(entries) for _ in range(cols)] for _ in range(rows)])
        for rows, cols in ((r, k), (k, c))
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_pairs(small_ints), sparse_pairs(small_fracs)))
def test_sparse_products_match_the_dense_product(pair):
    """`form_product` and `RMatrix.mul` skip zero entries, and
    `form_product` skips the gcd scan over the denominator 1; both agree
    with one Fraction dot product per entry, on integer and on rational
    matrices."""
    A, B = pair
    dense = dense_product(A, B)
    assert A.mul(B) == dense
    assert form_product(A.integer_form(), B.integer_form()) == dense.integer_form()


def _check_fixed_echelons(inst):
    rep = inst.rep
    for H in inst.subgroups():
        oracle = fix_subspace_via_kernels(rep, H.elements)
        echelon = rep.fix_echelon(H)
        assert echelon == integer_echelon(integer_form(oracle.basis)[0])
        assert Subspace.from_echelon(rep.matrix_dim, echelon) == oracle
        assert rep.fix(H) == oracle and rep.fix(H).echelon == echelon
        assert rep.fix_true_dim(H) == oracle.dim // rep.scalar_degree
        assert closure_phi(inst, H) == closure_by_definition(inst, H)


def test_fixed_echelons_and_closures_match_the_oracles_on_bundled_instances():
    paths = sorted(INSTANCES.glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        _check_fixed_echelons(load_instance(path))


@settings(max_examples=25, deadline=None)
@given(small_abelian_instances())
def test_fixed_echelons_and_closures_match_the_oracles_on_random_instances(inst):
    _check_fixed_echelons(inst)


def test_set_up_builds_no_fixed_subspace(monkeypatch):
    """Closed subgroups, the flat counts, the fixed dimensions, the raw
    arrangement and the block subspaces read the cached echelons: with
    `Representation.fix` and the stabilizer of a `Subspace` made to raise,
    they still succeed on every bundled instance."""

    def refuse(*args, **kwargs):
        raise AssertionError("a fixed Subspace was built during set-up")

    monkeypatch.setattr(Representation, "fix", refuse)
    monkeypatch.setattr(arrangement, "pointwise_stabilizer", refuse)
    for path in sorted(INSTANCES.glob("*.json")):
        inst = load_instance(path)
        assert closed_subgroups(inst).members
        assert flat_counts(inst.with_n(2))
        assert [inst.rep.fix_true_dim(H) for H in inst.subgroups()]
        two = inst.with_n(2)
        assert arrangement.raw_arrangement(two)
        for block in arrangement.building_blocks(two):
            arrangement.block_subspace(two, block)


def _s3_conjugated(seed):
    """S3 on its plane conjugated by a random invertible rational P, so
    that some matrices have a denominator above 1."""
    rng = random.Random(seed)
    perms, table = s3_cayley_table()
    G = FiniteGroup.from_cayley(table)
    while True:
        a, b, c, d = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        det = a * d - b * c
        if det != 0:
            break
    P = RMatrix(((a, b), (c, d)))
    P_inv = RMatrix(((d / det, -b / det), (-c / det, a / det)))
    matrices = {
        g: P.mul(RMatrix(deleted_permutation_matrix(perms[g]))).mul(P_inv)
        for g in range(G.order)
    }
    inst = ProblemInstance(1, G, Representation.from_matrices(G, matrices))
    assert any(den > 1 for _, den in inst.rep.forms)
    return inst


def _chains8_bare(chains8):
    """chains8 given by its matrices alone, with no character shortcut."""
    rep = chains8.rep
    plain = Representation(rep.group, rep.dim_v, rep.scalar_degree, rep.matrices)
    return ProblemInstance(1, rep.group, plain)


def _check_against_fraction_oracles(inst):
    rep = inst.rep
    for g in range(rep.group.order):
        assert rep.forms[g] == rep.matrix(g).integer_form()
    closed = []
    for H in inst.subgroups():
        fixed = fix_subspace(rep, H.elements)
        assert fixed == fix_subspace_via_kernels(rep, H.elements)
        assert pointwise_stabilizer(rep, fixed) == pointwise_stabilizer_by_definition(
            rep, fixed
        )
        phi = closure_by_definition(inst, H)
        assert closure_phi(inst, H) == phi
        assert closed_subgroups(inst).phi(H) == phi
        if phi == H:
            closed.append(H)
    assert closed_subgroups(inst).members == tuple(closed)


@settings(max_examples=25, deadline=None)
@given(small_abelian_instances())
def test_integer_forms_match_the_fraction_oracles_on_random_instances(inst):
    """Fixed spaces, stabilizers, phi and the closed subgroups on the forms
    against the Fraction definitions, and the matrices built from the forms
    against the Fraction companion-power build, entry for entry."""
    _check_against_fraction_oracles(inst)
    rep = inst.rep
    assert rep.matrices == character_matrices(rep.group, rep.characters)


def test_integer_forms_match_the_fraction_oracles_on_matrix_input(s3, chains8):
    """S3 as given and conjugated three ways so that den > 1, and chains8
    with no character shortcut; chains8's lazily built matrices also equal
    the Fraction companion-power build."""
    rep = chains8.rep
    assert rep.matrices == character_matrices(rep.group, rep.characters)
    conjugated = [_s3_conjugated(seed) for seed in range(3)]
    for inst in (s3, *conjugated, _chains8_bare(chains8)):
        _check_against_fraction_oracles(inst)


def test_set_up_builds_no_fraction_matrix_arithmetic(monkeypatch):
    """Loading every bundled instance and closing its subgroups runs on the
    integer forms: with RMatrix.sub, apply and mul made to raise, both
    still succeed, and no Fraction matrix is built beside the forms."""

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction matrix arithmetic during set-up")

    for name in ("sub", "apply", "mul"):
        monkeypatch.setattr(RMatrix, name, refuse)
    paths = sorted(INSTANCES.glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        inst = load_instance(path)
        assert closed_subgroups(inst).members
        assert inst.rep._matrices is None
