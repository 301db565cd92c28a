"""Series arithmetic, tree series, and the counting formulas."""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dowlingnest import (
    AbelianOnly,
    MultiSeries,
    NonInvertibleConstantTerm,
    Subgroup,
    big_g,
    egf,
    enumerate_forests,
    enumerate_nested_sets,
    gamma_bar,
    gamma_tilde,
    lambda_bar,
    lambda_for_subgroup,
    nested_count_via_series,
    partition_oracle,
)
from dowlingnest.forests import count_forests, decompose_forest
from dowlingnest.instancefile import load_instance
from dowlingnest.series import (
    _apply_exp_derive,
    _from_graded,
    _graded_forest_sum,
    _graded_lambda,
    _printed_series,
    admissible_order,
    dumps_series,
    series_variables,
    subgroup_variable,
)

from conftest import make_abelian_instance, small_abelian_instances
from oracles import (
    FractionSeries,
    _apply_exp_multiply,
    _tilde_by_operators,
    big_g_by_operators,
    count_arity2_trees,
    count_trees_with_unary_leaf_vertices,
    count_via_full_series,
    gamma_bar_by_operators,
    gamma_tilde_by_operators,
    lambda_bar_fixed_point,
    series_to_json,
)


# -- series arithmetic ----------------------------------------------------------------


def test_exp_of_zero_is_one():
    zero = MultiSeries(("t",), 4, {})
    assert zero.exp() == MultiSeries.constant(("t",), 4)


def test_geometric_inverse():
    one = MultiSeries.constant(("t",), 5)
    u = MultiSeries.monomial(("t",), 5, "t")
    inv = one.sub(u).inverse()
    assert inv == MultiSeries(
        ("t",), 5, {(k,): Fraction(1) for k in range(6)}
    )


def test_exp_needs_vanishing_t_constant():
    with pytest.raises(NonInvertibleConstantTerm):
        MultiSeries.constant(("s", "t"), 3).exp()
    with pytest.raises(NonInvertibleConstantTerm):
        MultiSeries.monomial(("s", "t"), 3, "s").exp()


def test_inverse_needs_constant_term():
    with pytest.raises(NonInvertibleConstantTerm):
        MultiSeries.monomial(("t",), 3, "t").inverse()
    with pytest.raises(NonInvertibleConstantTerm):
        MultiSeries(("s", "t"), 3, {(0, 0): 1, (1, 0): 1}).inverse()


@st.composite
def small_series(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=1, max_value=3),
            ),
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            max_size=4,
        )
    )
    return MultiSeries(("s", "t"), 4, terms)


@settings(max_examples=40, deadline=None)
@given(small_series())
def test_exp_times_exp_of_negation_is_one(A):
    product = A.exp().mul(A.scale(-1).exp())
    assert product == MultiSeries.constant(("s", "t"), 4)


@settings(max_examples=40, deadline=None)
@given(small_series())
def test_inverse_of_one_plus(A):
    one = MultiSeries.constant(("s", "t"), 4)
    B = one.add(A)
    assert B.mul(B.inverse()) == one


# -- the graded integer core against the operator exponential ---------------------

GRADED_VARS = [("t",), ("t", "tx"), ("s", "t"), ("s", "t", "tx"), ("t", "tx", "ty")]


@st.composite
def graded_series(draw):
    """(vars, B): an integer graded series with no degree-0 term in one to
    three packed variables; an exponent of s stays at most the t-degree, as
    in `series`, so the exponential keeps every exponent below the base."""
    vars = draw(st.sampled_from(GRADED_VARS))
    trunc = draw(st.integers(1, 5))
    base = trunc + 1
    ts = [i for i, v in enumerate(vars) if v != "s"]
    b = [{}]
    for d in range(1, trunc + 1):
        bucket = {}
        for _ in range(draw(st.integers(0, 3))):
            exps = [0] * len(vars)
            for i in draw(st.lists(st.sampled_from(ts), min_size=d, max_size=d)):
                exps[i] += 1
            if vars[0] == "s":
                exps[0] = draw(st.integers(0, d))
            key = sum(e * base ** (len(vars) - 1 - i) for i, e in enumerate(exps))
            bucket[key] = draw(st.integers(-4, 4))
        b.append(bucket)
    return vars, b


@settings(max_examples=60, deadline=None)
@given(graded_series())
def test_egf_exp_is_the_operator_exponential(drawn):
    vars, b = drawn
    assert _from_graded(vars, egf.exp(b)) == _from_graded(vars, b).exp()


def test_oracles_do_not_import_the_egf_core():
    """The oracle series, counts and enumerations stay independent of the
    shared cores: no `dowlingnest.egf` and no `disjoint_covers`, imported
    or reached as an attribute."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        core = [
            n
            for n in names
            if n.split(".")[:2] == ["dowlingnest", "egf"]
            or n.split(".")[-1] == "disjoint_covers"
        ]
        assert not core, ast.dump(node)


# -- integer numerators against the dict-of-Fraction reference --------------------

VARS = ("s", "t", "tx")
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def series_context(draw):
    vars = draw(st.permutations(VARS))[: draw(st.integers(min_value=1, max_value=3))]
    return tuple(vars), draw(st.integers(min_value=0, max_value=5))


def _coefficient_dicts(vars, trunc):
    # exponents up to trunc + 1, so some terms fall past the bound
    exps = st.tuples(*(st.integers(min_value=0, max_value=trunc + 1) for _ in vars))
    return st.dictionaries(exps, RATIONALS, max_size=6)


@st.composite
def series_pairs(draw):
    """(vars, trunc, x, y): y negates some of x's terms, so sums can cancel."""
    vars, trunc = draw(series_context())
    x = draw(_coefficient_dicts(vars, trunc))
    y = draw(_coefficient_dicts(vars, trunc))
    for e in draw(st.sets(st.sampled_from(sorted(x)))) if x else ():
        y[e] = -x[e]
    return vars, trunc, x, y


def _both(vars, trunc, coeffs):
    return MultiSeries(vars, trunc, coeffs), FractionSeries(vars, trunc, coeffs)


def _assert_canonical(x):
    numerators = [c for bucket in x._terms for c in bucket.values()]
    assert x._den > 0
    assert 0 not in numerators
    assert gcd(x._den, *numerators) == 1
    assert len(x._terms) == x.trunc + 1
    for d, bucket in enumerate(x._terms):
        assert all(x.t_degree(e) == d for e in bucket)
    assert len(x.coeffs) == len(numerators)


def _assert_matches(fast, slow):
    assert (fast.vars, fast.trunc) == (slow.vars, slow.trunc)
    assert fast.coeffs == slow.coeffs
    _assert_canonical(fast)


@settings(max_examples=80, deadline=None)
@given(series_pairs(), RATIONALS, st.data())
def test_operators_match_the_fraction_oracle(pair, value, data):
    vars, trunc, x, y = pair
    fx, sx = _both(vars, trunc, x)
    fy, sy = _both(vars, trunc, y)
    _assert_matches(fx, sx)
    _assert_matches(fx.add(fy), sx.add(sy))
    _assert_matches(fx.mul(fy), sx.mul(sy))
    _assert_matches(fx.scale(value), sx.scale(value))
    var = data.draw(st.sampled_from(vars))
    _assert_matches(fx.derive(var), sx.derive(var))


@settings(max_examples=60, deadline=None)
@given(series_pairs(), RATIONALS.filter(bool))
def test_exp_and_inverse_match_the_fraction_oracle(pair, constant):
    vars, trunc, x, _ = pair
    fx, sx = _both(vars, trunc, x)
    if any(sx.t_degree(e) == 0 for e in sx.coeffs):
        with pytest.raises(NonInvertibleConstantTerm):
            fx.exp()
        return
    _assert_matches(fx.exp(), sx.exp())
    zero = tuple(0 for _ in vars)
    with_constant = dict(x)
    with_constant[zero] = constant
    fc, sc = _both(vars, trunc, with_constant)
    _assert_matches(fc.inverse(), sc.inverse())


@settings(max_examples=60, deadline=None)
@given(series_pairs())
def test_sum_then_difference_is_canonical(pair):
    vars, trunc, x, y = pair
    fx = MultiSeries(vars, trunc, x)
    fy = MultiSeries(vars, trunc, y)
    back = fx.add(fy).sub(fy)
    assert back == fx
    assert hash(back) == hash(fx)
    _assert_canonical(back)
    assert fx.sub(fx) == MultiSeries(vars, trunc, {})


# -- tree series ---------------------------------------------------------------------


def test_lambda_bar_small_coefficients():
    lam = lambda_bar(1, 4)
    counts = [int(lam.coeffs.get((l,), Fraction(0)) * factorial(l)) for l in (1, 2, 3)]
    assert counts == [0, 1, 4]
    lam2 = lambda_bar(2, 3)
    assert lam2.coeffs.get((2,)) * 2 == 2  # one shape, two labelings


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_lambda_bar_matches_both_oracles(r):
    lam = lambda_bar(r, 6)
    for l in range(1, 7):
        value = int(lam.coeffs.get((l,), Fraction(0)) * factorial(l))
        assert value == count_arity2_trees(range(1, l + 1), r)
        assert value == sum(
            partition_oracle(l + k - 1, k, r) for k in range(1, l + 1)
        )


@pytest.mark.parametrize("r", range(1, 9))
def test_lambda_bar_recurrence_matches_the_fixed_point(r):
    for trunc in range(17):
        assert lambda_bar(r, trunc) == lambda_bar_fixed_point(r, trunc), trunc


def test_partition_oracle_base_cases():
    for r in (1, 2, 3):
        assert partition_oracle(2, 1, r) == r
    assert partition_oracle(3, 2, 5) == 0
    assert partition_oracle(4, 2, 1) == 3


def test_lambda_for_proper_subgroup_doubles(z4_plane):
    mid = Subgroup((0, 2))
    lam = lambda_for_subgroup(z4_plane, mid, 4)
    assert lam.coeffs.get((1,)) == 1  # the bare root-over-leaf tree
    # |G / <2>| = 2: coefficient at l = 2 is 2^2 * 2 = 8
    assert lam.coeffs.get((2,)) * factorial(2) == 8


@pytest.mark.parametrize("r", [1, 2, 3])
def test_lambda_with_unary_leaf_vertices_matches_enumeration(r):
    """Tree-level oracle for subgroups with quotient size r, leaves doubled."""
    inst = make_abelian_instance([2 * r] if r > 1 else [2], [[1]], 1)
    sub = (
        Subgroup(tuple(range(0, 2 * r, r)))
        if r > 1
        else Subgroup((0, 1))
    )
    if r == 1:
        with pytest.raises(AbelianOnly):
            lambda_for_subgroup(inst, sub, 3)  # the full group has no series
        return
    lam = lambda_for_subgroup(inst, sub, 5)
    for l in range(1, 6):
        value = int(lam.coeffs.get((l,), Fraction(0)) * factorial(l))
        assert value == count_trees_with_unary_leaf_vertices(range(1, l + 1), r)


def test_lambda_trivial_subgroup_has_no_unary_vertices(z2):
    lam = lambda_for_subgroup(z2, Subgroup((0,)), 4)
    assert lam.coeffs.get((1,), Fraction(0)) == 0
    assert lam.coeffs.get((2,)) * 2 == 2  # |G| = 2 labelings of the cherry


def test_closed_form_variant_with_scaled_parts_disagrees():
    """The alternative reading that doubles inside the partition weights
    (2rt)^i inflates multi-vertex trees; enumeration pins the factor 2^l."""
    r = 2
    for l in (3, 4):
        enumerated = count_trees_with_unary_leaf_vertices(range(1, l + 1), r) - (
            1 if l == 1 else 0
        )
        proof_form = 2**l * sum(
            partition_oracle(l + k - 1, k, r) for k in range(1, l + 1)
        )
        scaled_parts = sum(
            2 ** (l + k - 1) * partition_oracle(l + k - 1, k, r)
            for k in range(1, l + 1)
        )
        assert proof_form == enumerated
        assert scaled_parts != enumerated


def test_lambda_requires_abelian(s3):
    with pytest.raises(AbelianOnly):
        lambda_for_subgroup(s3, Subgroup((0,)), 3)
    with pytest.raises(AbelianOnly):
        gamma_tilde(s3, 2)
    with pytest.raises(AbelianOnly):
        nested_count_via_series(s3, 2)


# -- the forest series ---------------------------------------------------------------


def test_single_subgroup_gamma_tilde_is_a_plain_exponential(z2):
    tilde = gamma_tilde(z2, 3)
    vars = series_variables(z2)
    lam = lambda_for_subgroup(z2, Subgroup((0,)), 3)
    var = subgroup_variable(Subgroup((0,)))
    embedded = MultiSeries(
        vars, 3, {_exps(vars, {var: e[0]}): c for e, c in lam.coeffs.items()}
    )
    s = MultiSeries.monomial(vars, 3, "s")
    assert tilde == s.mul(embedded).exp()


def _exps(vars, named):
    out = [0] * len(vars)
    for var, e in named.items():
        out[vars.index(var)] = e
    return tuple(out)


def test_two_subgroup_chain_reproduces_the_binomial_expansion(z4_plane):
    """One tree for the big label, one for the small: gluing the small tree
    under a leaf of the big one trades a component for a shared leaf."""
    small = Subgroup((0,))
    big = Subgroup((0, 2))
    N = 5
    vars = series_variables(z4_plane)
    lam_small = lambda_for_subgroup(z4_plane, small, N)
    lam_big = lambda_for_subgroup(z4_plane, big, N)
    v_small = subgroup_variable(small)
    v_big = subgroup_variable(big)
    lam_small_e = MultiSeries(
        vars, N, {_exps(vars, {v_small: e[0]}): c for e, c in lam_small.coeffs.items()}
    )
    lam_big_e = MultiSeries(
        vars, N, {_exps(vars, {v_big: e[0]}): c for e, c in lam_big.coeffs.items()}
    )
    s = MultiSeries.monomial(vars, N, "s")
    one_big = s.mul(lam_big_e)
    paired = s.mul(lam_small_e).mul(one_big).add(
        lam_small_e.mul(one_big.derive(v_big))
    )
    for i in range(1, N):
        for j in range(1, N - i + 1):
            li = lam_big.coeffs.get((i,), Fraction(0)) * factorial(i)
            lj = lam_small.coeffs.get((j,), Fraction(0)) * factorial(j)
            two_trees = paired.coeffs.get(
                _exps(vars, {"s": 2, v_big: i, v_small: j}), Fraction(0)
            )
            assert two_trees == comb(i + j, j) * li * lj / factorial(i + j)
            if i >= 1:
                one_tree = paired.coeffs.get(
                    _exps(vars, {"s": 1, v_big: i - 1, v_small: j}), Fraction(0)
                )
                assert one_tree == comb(i + j - 1, j) * li * lj / factorial(
                    i + j - 1
                )


def test_gamma_tilde_order_independent(klein):
    """The operator construction gives the composed series in every order
    that puts each strict supergroup first."""
    default = gamma_tilde(klein, 3)
    proper = list(admissible_order(klein))
    admissible = []
    for perm in permutations(proper):
        ok = True
        seen = set()
        for H in perm:
            for K in proper:
                if H.is_subset(K) and K != H and K.elements not in seen:
                    ok = False
            seen.add(H.elements)
        if ok:
            admissible.append(perm)
    assert len(admissible) >= 2
    for perm in admissible:
        assert gamma_tilde_by_operators(klein, 3, order=perm) == default


def test_inadmissible_order_rejected(klein):
    proper = admissible_order(klein)
    reversed_order = tuple(reversed(proper))
    with pytest.raises(ValueError):
        gamma_tilde_by_operators(klein, 3, order=reversed_order)


@pytest.mark.parametrize(
    "name, top",
    [
        ("z2", 4),
        ("z3", 4),
        ("z4", 4),
        ("klein4", 4),
        ("z4_plane", 4),
        ("z2x4_chains", 3),
    ],
)
def test_composition_gives_the_operator_series(name, top):
    """The forest series composed once per label equals the product of its
    operator exponentials, at every truncation."""
    inst = load_instance(INSTANCES / f"{name}.json")
    for trunc in range(top + 1):
        assert gamma_tilde(inst, trunc) == gamma_tilde_by_operators(inst, trunc), trunc


@settings(max_examples=25, deadline=None)
@given(small_abelian_instances())
def test_composition_gives_the_operator_series_on_random_instances(inst):
    assert gamma_tilde(inst, inst.n) == gamma_tilde_by_operators(inst, inst.n)


def test_operator_summands_commute(klein):
    """The three summands of the {e}-step act on a test series in any order
    with the same result."""
    vars = series_variables(klein)
    N = 3
    trivial = Subgroup((0,))
    lam = lambda_for_subgroup(klein, trivial, N)
    var_e = subgroup_variable(trivial)
    lam_e = MultiSeries(
        vars, N, {_exps(vars, {var_e: e[0]}): c for e, c in lam.coeffs.items()}
    )
    h1_var = subgroup_variable(Subgroup((0, 2)))
    h2_var = subgroup_variable(Subgroup((0, 1)))
    start = (
        MultiSeries.monomial(vars, N, h1_var)
        .add(MultiSeries.monomial(vars, N, h2_var))
        .add(MultiSeries.constant(vars, N))
        .mul(MultiSeries.monomial(vars, N, "s").add(MultiSeries.constant(vars, N)))
    )
    s = MultiSeries.monomial(vars, N, "s")
    ops = [
        lambda X: _apply_exp_multiply(X, s.mul(lam_e)),
        lambda X: _apply_exp_derive(X, lam_e, h1_var),
        lambda X: _apply_exp_derive(X, lam_e, h2_var),
    ]
    results = set()
    for perm in permutations(range(3)):
        X = start
        for k in perm:
            X = ops[k](X)
        results.add(X)
    assert len(results) == 1


def test_gamma_bar_shape(klein):
    tilde = gamma_tilde(klein, 3)
    bar = gamma_bar(klein, 3)
    zero = tuple(0 for _ in bar.vars)
    assert zero not in bar.coeffs  # constant term vanishes
    one = MultiSeries.constant(tilde.vars, 3)
    t = bar.vars.index("t")
    at_t0 = {e: c for e, c in bar.coeffs.items() if e[t] == 0}
    expected = {e: c for e, c in tilde.sub(one).coeffs.items() if e[t] == 0}
    assert at_t0 == expected


def test_series_counts_on_small_instances(z2, z3, z4, klein):
    for inst in (z2, z3, z4, klein):
        assert nested_count_via_series(inst, 0) == 0
        assert nested_count_via_series(inst, 1) == len(
            enumerate_nested_sets(inst.with_n(1))
        )
        assert nested_count_via_series(inst, 2) == len(enumerate_nested_sets(inst))


INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.mark.parametrize(
    "name, top",
    [
        ("z2", 5),
        ("z3", 5),
        ("z4", 5),
        ("klein4", 5),
        ("z4_plane", 5),
        ("z2x4_chains", 4),
    ],
)
def test_count_path_matches_the_full_series(name, top):
    """2 y_n - 1 (`nested_count_via_series`) gives the coefficient of the
    full series built from operator exponentials."""
    inst = load_instance(INSTANCES / f"{name}.json")
    for n in range(1, top + 1):
        sub = inst.with_n(n)
        assert nested_count_via_series(sub, n) == count_via_full_series(sub, n), n


@settings(max_examples=25, deadline=None)
@given(small_abelian_instances())
def test_count_path_matches_the_full_series_on_random_instances(inst):
    assert nested_count_via_series(inst, inst.n) == count_via_full_series(
        inst, inst.n
    )


ABELIAN = ["z2", "z3", "z4", "klein4", "z4_plane", "z2x4_chains"]


@pytest.mark.parametrize("name", ABELIAN)
def test_series_count_is_the_printed_series_at_s_one(name):
    """2 y_n - 1 equals n! times the sum over a of [s^a t^n] `big_g`, the
    series `series` prints, and n = 0 gives 0."""
    inst = load_instance(INSTANCES / f"{name}.json")
    assert nested_count_via_series(inst, 0) == 0
    for n in range(1, 6):
        g = big_g(inst.with_n(n), n)
        at_one = sum(g.coefficient(s=a, t=n) for a in range(n + 1))
        assert nested_count_via_series(inst.with_n(n), n) == at_one * factorial(n), n


def test_chains8_count_at_n12(chains8):
    """Pinned from the full series route, which took about a second here;
    the count at s = 1 takes about a millisecond."""
    assert (
        nested_count_via_series(chains8.with_n(12), 12)
        == 1207475572661904557098426367
    )


def test_single_factor_count_is_one(z2):
    assert nested_count_via_series(z2, 1) == 1


def test_klein_has_three_tree_series(klein):
    """Both order-2 proper closed subgroups share the quotient size 2, so
    their series coincide; the trivial subgroup runs at the full order 4."""
    h1 = lambda_for_subgroup(klein, Subgroup((0, 2)), 3)
    h2 = lambda_for_subgroup(klein, Subgroup((0, 1)), 3)
    e = lambda_for_subgroup(klein, Subgroup((0,)), 3)
    assert h1 == h2
    assert e != h1
    assert len(series_variables(klein)) == 5  # s, t, and three subgroup slots


def test_coefficients_nonnegative_and_egf_integral(z3, klein):
    for inst in (z3, klein):
        for series in (gamma_tilde(inst, 3), gamma_bar(inst, 3), big_g(inst, 3)):
            for exps, coeff in series.coeffs.items():
                assert coeff >= 0
                degree = series.t_degree(exps)
                assert (coeff * factorial(degree)).denominator == 1


def test_gamma_statistics_cross_check(klein):
    """Series coefficients against tallies from the actual forests."""
    N = 2
    tilde = gamma_tilde(klein, N)
    bar = gamma_bar(klein, N)
    vars = tilde.vars
    proper = admissible_order(klein)
    whole = Subgroup((0, 1, 2, 3))
    from collections import Counter

    tally_nofallen = Counter()
    tally_all = Counter()
    for n in (1, 2):
        sub = klein.with_n(n)
        for forest in enumerate_forests(sub):
            dec = decompose_forest(sub, forest)
            if any(K == whole for K, _ in dec.subforests):
                continue
            a = tuple(dec.count_for(K) for K in proper)
            tally_all[(dec.components, dec.fallen, a)] += 1
            if dec.fallen == 0:
                tally_nofallen[(dec.components, a)] += 1
    for (j, a), count in tally_nofallen.items():
        named = {"s": j}
        named.update({subgroup_variable(K): e for K, e in zip(proper, a)})
        assert tilde.coeffs.get(_exps(vars, named)) == Fraction(
            count, factorial(sum(a))
        )
    for (j, h, a), count in tally_all.items():
        named = {"s": j, "t": h}
        named.update({subgroup_variable(K): e for K, e in zip(proper, a)})
        assert bar.coeffs.get(_exps(vars, named)) == Fraction(
            count, factorial(h + sum(a))
        )


def test_series_json_shape(z2):
    payload = series_to_json(big_g(z2, 2))
    assert payload["truncation"] == 2
    assert all(set(t) == {"s", "t", "tH", "coeff"} for t in payload["terms"])
    total = [t for t in payload["terms"] if t["s"] == 1 and t["t"] == 2]
    assert total and total[0]["coeff"] == "7/2"


# -- the count by substitution --------------------------------------------------------


def _merged_tilde_counts(inst, trunc):
    """n! [t^n] of gamma_tilde at s = 1 with every t_K merged into t, from
    the operator exponentials on the full series."""
    tilde = _tilde_by_operators(inst, trunc).eval_var("s", 1)
    merged = tilde.merge_vars([v for v in tilde.vars if v != "t"], "t")
    return [merged.coeffs.get((k,), 0) * factorial(k) for k in range(trunc + 1)]


def _packed_tilde_counts(inst, trunc):
    """The composition of `gamma_tilde` with every t_K packed as t and s at
    weight 0, the packing the count at s = 1 uses: bucket n holds one key."""
    graded = egf.exp(_graded_forest_sum(inst, trunc, lambda K: 1))
    return [bucket.get(n, 0) for n, bucket in enumerate(graded)]


@pytest.mark.parametrize(
    "name, top",
    [
        ("z2", 6),
        ("z3", 5),
        ("z4", 5),
        ("klein4", 5),
        ("z4_plane", 5),
        ("z2x4_chains", 4),
    ],
)
def test_translations_give_the_merged_forest_series(name, top):
    inst = load_instance(INSTANCES / f"{name}.json")
    assert _packed_tilde_counts(inst, top) == _merged_tilde_counts(inst, top)


@settings(max_examples=25, deadline=None)
@given(small_abelian_instances())
def test_translations_give_the_merged_forest_series_on_random_instances(inst):
    assert _packed_tilde_counts(inst, inst.n) == _merged_tilde_counts(inst, inst.n)


@pytest.mark.parametrize("r", [1, 2, 4])
def test_lambda_counts_compose(r):
    """lambda_bar(U) from the recurrence equals the sum of a_k U^k / k!."""
    trunc = 7
    inner = [0, 1, 3, 0, 5, 2, 0, 11]
    U = MultiSeries(
        ("t",), trunc, {(n,): Fraction(x, factorial(n)) for n, x in enumerate(inner)}
    )
    lam = lambda_bar(r, trunc)
    composed = MultiSeries(("t",), trunc, {})
    power = MultiSeries.constant(("t",), trunc)
    for k in range(1, trunc + 1):
        power = power.mul(U)
        composed = composed.add(power.scale(lam.coefficient(t=k)))
    graded = _graded_lambda(r, [{n: x} if x else {} for n, x in enumerate(inner)])
    assert [bucket.get(n, 0) for n, bucket in enumerate(graded)] == [
        composed.coefficient(t=n) * factorial(n) for n in range(trunc + 1)
    ]


@pytest.mark.parametrize(
    "name, top",
    [
        ("z2x4_chains", 24),
        ("klein4", 20),
        ("z2", 40),
        ("z3", 30),
        ("z4", 30),
        ("z4_plane", 30),
    ],
)
def test_series_count_matches_the_forest_count(name, top):
    """Two independent routes, both fast: the series formula at s = 1 and
    forests counted by part size."""
    inst = load_instance(INSTANCES / f"{name}.json", cap_nested=10**100)
    for n in range(1, top + 1):
        sub = inst.with_n(n)
        assert nested_count_via_series(sub, n) == count_forests(sub), n


def _oracle_payload(inst, degree):
    """The JSON form of the oracle series built from operator exponentials."""
    oracle = {
        "gamma_tilde": _tilde_by_operators(inst, degree),
        "gamma_bar": gamma_bar_by_operators(inst, degree),
        "g": big_g_by_operators(inst, degree),
    }
    return {name: series_to_json(x) for name, x in oracle.items()}


@pytest.mark.parametrize("name", ["z2", "klein4", "z4_plane", "z2x4_chains"])
def test_series_payload_writer_matches_json_dumps(name):
    """`dumps_series` of the printed graded series writes what json.dumps
    writes for the oracle series built from operator exponentials."""
    inst = load_instance(INSTANCES / f"{name}.json")
    empty_terms = empty_tH = False
    for degree in range(5):
        payload = _oracle_payload(inst, degree)
        expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert dumps_series(_printed_series(inst, degree)) == expected, degree
        terms = [t for body in payload.values() for t in body["terms"]]
        empty_terms |= any(not body["terms"] for body in payload.values())
        empty_tH |= any(not t["tH"] for t in terms)
    assert empty_terms and empty_tH


@settings(max_examples=20, deadline=None)
@given(small_abelian_instances(), st.integers(0, 4))
def test_series_writer_matches_json_dumps_on_random_instances(inst, degree):
    expected = json.dumps(_oracle_payload(inst, degree), sort_keys=True, indent=2)
    assert dumps_series(_printed_series(inst, degree)) == expected + "\n"


# -- G and gamma_bar against the operator formula --------------------------------------


def _assert_matches_the_oracle(inst, trunc):
    for fast, slow in (
        (big_g(inst, trunc), big_g_by_operators(inst, trunc)),
        (gamma_bar(inst, trunc), gamma_bar_by_operators(inst, trunc)),
    ):
        assert (fast.vars, fast.trunc) == (slow.vars, slow.trunc)
        assert fast.coeffs == slow.coeffs, trunc


@pytest.mark.parametrize(
    "name, top",
    [
        ("z2", 4),
        ("z3", 4),
        ("z4", 4),
        ("klein4", 4),
        ("z4_plane", 4),
        ("z2x4_chains", 3),
    ],
)
def test_graded_formula_gives_the_operator_series(name, top):
    """`big_g` and `gamma_bar` equal the formula of products, exponentials
    and an inverse on `FractionSeries`, at every truncation."""
    inst = load_instance(INSTANCES / f"{name}.json")
    for trunc in range(top + 1):
        _assert_matches_the_oracle(inst, trunc)


@settings(max_examples=25, deadline=None)
@given(small_abelian_instances())
def test_graded_formula_gives_the_operator_series_on_random_instances(inst):
    _assert_matches_the_oracle(inst, inst.n)
