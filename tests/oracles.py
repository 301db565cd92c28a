"""Independent counting and ordering oracles shared by unit and acceptance tests.

These stay deliberately naive: exhaustive recursion straight from the
defining combinatorics, no reuse of library internals beyond basic linear
algebra for the lattices, the raw arrangement the lattice oracle closes,
the forest node types, closed subgroups and cosets for the forest oracle,
the series arithmetic for the series oracles, the Fraction matrices
of a representation for the fixed-space and stabilizer oracles, the
representation constructor's matrix route for character input, and the
block compatibility table for the clique walk (the table has its own
pairwise oracle tests).  The small checks on posets, subgroups and
matrices that only tests use live here too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from dowlingnest.arrangement import (
    _compatibility,
    building_blocks,
    closed_subgroups,
    raw_arrangement,
)
from dowlingnest.errors import SizeBoundExceeded
from dowlingnest.forests import LabelledForest, Leaf, Vertex
from dowlingnest.groups import Subgroup, left_cosets
from dowlingnest.linalg import RMatrix, Subspace, kernel
from dowlingnest.poset import Poset
from dowlingnest.reps import Representation, cyclotomic_polynomial
from dowlingnest.series import (
    MultiSeries,
    _apply_exp_derive,
    admissible_order,
    lambda_for_subgroup,
    series_variables,
    subgroup_variable,
)


def set_partitions(items):
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield ((first,),) + sub
        for i in range(len(sub)):
            yield tuple(
                tuple(sorted(sub[j] + (first,))) if j == i else sub[j]
                for j in range(len(sub))
            )


def count_arity2_trees(leaves, r):
    """Leaf-labelled rooted trees, every internal vertex with >= 2 children,
    a vertex with c children contributing r^(c-1) edge labelings."""
    if len(leaves) < 2:
        return 0
    total = 0
    for parts in set_partitions(tuple(leaves)):
        if len(parts) < 2:
            continue
        ways = r ** (len(parts) - 1)
        for p in parts:
            if len(p) > 1:
                ways *= count_arity2_trees(p, r)
        total += ways
    return total


def count_trees_with_unary_leaf_vertices(leaves, r):
    """Trees as above, but a vertex may also have exactly one child when
    that child is a leaf; the single tree on one leaf is the bare root-leaf."""
    if len(leaves) == 1:
        return 1
    return _multi_child_trees(tuple(leaves), r)


def _multi_child_trees(leaves, r):
    total = 0
    for parts in set_partitions(leaves):
        if len(parts) < 2:
            continue
        ways = r ** (len(parts) - 1)
        for p in parts:
            if len(p) == 1:
                ways *= 2  # plain leaf, or a unary vertex over it
            else:
                ways *= _multi_child_trees(p, r)
        total += ways
    return total


def lambda_bar_fixed_point(r, trunc):
    """The tree series by fixed-point passes on
    lambda_bar = (1/r) * (exp(r*B) - 1 - r*B), B = t + lambda_bar: each pass
    fixes at least one more degree, so trunc + 1 passes reach the solution."""
    t = MultiSeries.monomial(("t",), trunc, "t")
    lam = MultiSeries(("t",), trunc, {})
    for _ in range(trunc + 1):
        branches = t.add(lam)
        rb = branches.scale(r)
        correction = MultiSeries.constant(("t",), trunc).add(rb)
        nxt = rb.exp().sub(correction).scale(Fraction(1, r))
        if nxt == lam:
            break
        lam = nxt
    return lam


def count_via_full_series(inst, n):
    """n! times the t^n coefficient of the full (s, t) series at s = 1,
    with the forest series built by its operator exponentials."""
    full = big_g_by_operators(inst, n)
    value = full.eval_var("s", 1).coeffs.get((n,), 0) * factorial(n)
    assert value.denominator == 1, value
    return int(value)


def _tilde_by_operators(inst, trunc):
    """`gamma_tilde_by_operators` as a `FractionSeries`."""
    tilde = gamma_tilde_by_operators(inst, trunc)
    return FractionSeries(tilde.vars, trunc, tilde.coeffs)


def _monomial(vars, trunc, *names):
    return FractionSeries(vars, trunc, {tuple(int(v in names) for v in vars): 1})


def gamma_bar_by_operators(inst, trunc):
    """e^(s t) (gamma_tilde - 1) on `FractionSeries`, from the operator
    exponentials."""
    tilde = _tilde_by_operators(inst, trunc)
    one = tilde._constant()
    st = _monomial(tilde.vars, trunc, "s", "t")
    return st.exp().mul(tilde.add(one.scale(-1)))


def big_g_by_operators(inst, trunc):
    """G = s phi Gamma + e^(s t) (Gamma~_t - 1) on `FractionSeries`, from the
    operator exponentials: every t_K merged into t, Gamma = e^(s t) Gamma~_t
    and phi = 1/(2 - Gamma(1, t)) - 1."""
    tilde = _tilde_by_operators(inst, trunc)
    tilde_t = tilde.merge_vars([v for v in tilde.vars if v not in ("s", "t")], "t")
    vars = tilde_t.vars
    one = tilde_t._constant()
    est = _monomial(vars, trunc, "s", "t").exp()
    gamma_st = est.mul(tilde_t)
    gamma_1t = gamma_st.eval_var("s", 1).embed(vars)
    phi = one.scale(2).add(gamma_1t.scale(-1)).inverse().add(one.scale(-1))
    bar_t = est.mul(tilde_t.add(one.scale(-1)))
    return _monomial(vars, trunc, "s").mul(phi).mul(gamma_st).add(bar_t)


def _apply_exp_multiply(series, factor):
    """e^(factor) * series for a multiplication operator."""
    return series.mul(factor.exp())


def gamma_tilde_by_operators(inst, trunc, order=None):
    """The forest series from its definition: for each H of `order`
    (default: largest labels first), the commuting operator exponential of
    lam_H(t_H) * (s + sum over K strictly above H of d/dt_K) applied to
    the series so far, starting from 1.  `order` must list the proper closed
    subgroups with every strict supergroup before its subgroups."""
    proper = closed_subgroups(inst).proper
    if order is None:
        order = admissible_order(inst)
    order = tuple(order)
    seen = set()
    for H in order:
        for K in proper:
            if H.is_subset(K) and K.elements != H.elements and K.elements not in seen:
                raise ValueError("processing order must place every supergroup first")
        seen.add(H.elements)
    if {H.elements for H in order} != {K.elements for K in proper}:
        raise ValueError("processing order must cover the proper closed subgroups")
    vars = series_variables(inst)
    acc = MultiSeries.constant(vars, trunc)
    s_var = MultiSeries.monomial(vars, trunc, "s")
    for H in order:
        var = subgroup_variable(H)
        lam = lambda_for_subgroup(inst, H, trunc)
        lam = MultiSeries(
            vars,
            trunc,
            {tuple(e[0] if v == var else 0 for v in vars): c for e, c in lam.coeffs.items()},
        )
        acc = _apply_exp_multiply(acc, s_var.mul(lam))
        for K in proper:
            if H.is_subset(K) and K.elements != H.elements:
                acc = _apply_exp_derive(acc, lam, subgroup_variable(K))
    return acc


_NO_LEAF = 10**9


def smallest_leaf(node):
    """Smallest leaf label below a forest node, found by walking the subtree."""
    if isinstance(node, Leaf):
        return node.label if node.label is not None else _NO_LEAF
    return min((smallest_leaf(c) for _, c in node.children), default=_NO_LEAF)


def _children_in_leaf_order(node):
    return sorted(node.children, key=lambda e: smallest_leaf(e[1]))


def tree_order_key(node):
    """The canonical order of forest trees as nested tuples, by recursion:
    leaves first by label, then vertices by subgroup size and elements,
    then by the (coset representative, child key) pairs in leaf order."""
    if isinstance(node, Leaf):
        return (0, smallest_leaf(node))
    return (
        1,
        (len(node.subgroup.elements), node.subgroup.elements),
        tuple((rep, tree_order_key(c)) for rep, c in _children_in_leaf_order(node)),
    )


def forest_order_key(forest):
    return tuple(
        tree_order_key(t) for t in sorted(forest.trees, key=smallest_leaf)
    )


def flat_tree_key(node):
    """`tree_order_key` flattened into the tuple of ints a vertex stores:
    1, subgroup size and elements, each (representative, child key), -1."""
    if isinstance(node, Leaf):
        return tree_order_key(node)
    key = (1, len(node.subgroup.elements)) + node.subgroup.elements
    for rep, child in _children_in_leaf_order(node):
        key += (rep,) + flat_tree_key(child)
    return key + (-1,)


def forests_by_partitions(inst):
    """Every valid forest, by building every combination and filtering: the
    trees on each part of each set partition of the leaves, every choice
    of one tree or bare leaf per part, the choices that break rule (3) or
    have no internal vertex dropped, and one sort by `forest_order_key`.

    A tree on a part is a leaf under a vertex not labelled {e}, or a vertex
    over a proper set partition of the part, the child holding the smallest
    leaf on the trivial edge below a label containing its own, each other
    child on an edge a with a^-1 L a <= K; then unary chains of strictly
    larger labels.  A G vertex with two G children is dropped per
    combination."""
    G = inst.group
    members = closed_subgroups(inst).members
    whole = Subgroup(tuple(range(G.order)))
    trivial = Subgroup((G.identity,))

    # coset representatives of K allowed on an edge to a child labelled L,
    # or to a leaf when L is None
    admissible = {}
    for K in members:
        reps = [c.rep for c in left_cosets(G, K)]
        admissible[K, None] = reps
        for L in members:
            admissible[K, L] = [
                a for a in reps if all(G.conj(G.inv(a), p) in K.elements for p in L)
            ]

    def is_whole(node):
        return isinstance(node, Vertex) and node.subgroup == whole

    memo = {}

    def trees_on(part):
        if part in memo:
            return memo[part]
        by_label = {K: [] for K in members}
        if len(part) == 1:
            for K in members:
                if K != trivial:
                    by_label[K].append(Vertex(K, ((0, Leaf(part[0])),)))
        for split in set_partitions(part):
            if len(split) < 2:
                continue
            first, *rest = sorted(split, key=min)
            options = [
                [(None, Leaf(p[0]))] * (len(p) == 1) + [(t.subgroup, t) for t in trees_on(p)]
                for p in (first, *rest)
            ]
            for K in members:
                offers = [[(0, t) for L, t in options[0] if L is None or L.is_subset(K)]]
                offers.extend(
                    [(a, t) for L, t in opts for a in admissible[K, L]]
                    for opts in options[1:]
                )
                for children in product(*offers):
                    if sum(is_whole(t) for _, t in children) > 1:
                        continue
                    by_label[K].append(Vertex(K, children))
        for K in members:
            for P in members:
                if P.is_subset(K) and P != K:
                    by_label[K].extend(Vertex(K, ((0, t),)) for t in by_label[P])
        memo[part] = [t for K in members for t in by_label[K]]
        return memo[part]

    forests = []
    for partition in set_partitions(tuple(range(1, inst.n + 1))):
        options = [[Leaf(p[0])] * (len(p) == 1) + trees_on(p) for p in partition]
        for combo in product(*options):
            internal = [t for t in combo if isinstance(t, Vertex)]
            if internal and sum(map(is_whole, internal)) <= 1:
                forests.append(LabelledForest(combo))
    return sorted(forests, key=forest_order_key)


def gauss_jordan_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination over Fraction:
    (nonzero rows, pivot columns), the contract of `linalg.rref`."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def companion_matrix(poly):
    """Companion matrix of a monic polynomial given by ascending coefficients."""
    deg = len(poly) - 1
    entries = [[Fraction(0)] * deg for _ in range(deg)]
    for i in range(1, deg):
        entries[i][i - 1] = Fraction(1)
    for i in range(deg):
        entries[i][deg - 1] = Fraction(-poly[i])
    return RMatrix(tuple(tuple(r) for r in entries))


def _block_diag(blocks):
    size = sum(b.rows for b in blocks)
    entries = [[Fraction(0)] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                entries[off + i][off + j] = b.entries[i][j]
        off += b.rows
    return RMatrix(tuple(tuple(r) for r in entries))


def character_exponents(group, characters):
    """The exponent k of zeta_N by which each element acts on each
    coordinate (N the exponent of the group), element by element."""
    spec = group.abelian_spec
    N = group.exponent()
    return tuple(
        tuple(
            sum(c * x * (N // d) for c, x, d in zip(ch, group.id_to_tuple(a), spec)) % N
            for ch in characters
        )
        for a in range(group.order)
    )


def exponent_matrices(group, exponents):
    """rho(a) for each row of exponents, in Fraction arithmetic: coordinate
    j carries the k-th power of the companion matrix of the N-th cyclotomic
    polynomial, k the row's entry j (N the exponent of the group)."""
    N = group.exponent()
    comp = companion_matrix(cyclotomic_polynomial(N))
    powers = [RMatrix.identity(comp.rows)]
    for _ in range(1, N):
        powers.append(powers[-1].mul(comp))
    return tuple(_block_diag([powers[k % N] for k in row]) for row in exponents)


def character_matrices(group, characters):
    """rho(a) for each element of an abelian group acting through the
    characters, in Fraction arithmetic (`exponent_matrices`)."""
    return exponent_matrices(group, character_exponents(group, characters))


def representation_by_matrices(group, exponents):
    """The representation with the given character exponents, given by its
    Fraction matrices: the constructor then decides the homomorphism,
    identity and faithfulness rules on one integer form per element, with
    `form_product`, where character input is decided on the exponents."""
    dim_v = len(exponents[0])
    degree = len(cyclotomic_polynomial(group.exponent())) - 1
    return Representation(group, dim_v, degree, exponent_matrices(group, exponents))


def dense_product(A, B):
    """The product of two `RMatrix`es, one Fraction dot product per entry."""
    cols = tuple(zip(*B.entries))
    return RMatrix(
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in A.entries)
    )


def is_identity(M):
    return M == RMatrix.identity(M.rows)


def zero_space(ambient_dim):
    return Subspace(ambient_dim=ambient_dim, basis=())


def image_under(space, M):
    """The subspace {M v : v in space}."""
    return Subspace.from_spanning(M.rows, tuple(M.apply(v) for v in space.basis))


def check_subgroup(G, H):
    """Raise unless H holds the identity and is closed under multiplication
    and inversion."""
    elems = set(H.elements)
    if G.identity not in elems:
        raise AssertionError("subgroup must contain the identity")
    for a in elems:
        if G.inv(a) not in elems:
            raise AssertionError(f"subgroup not closed under inversion at {a}")
        for b in elems:
            if G.mul(a, b) not in elems:
                raise AssertionError(f"subgroup not closed under product at ({a},{b})")


def tuple_to_id(G, coords):
    """The element id of a coordinate tuple of an invariant-factor group."""
    a = 0
    for x, d in zip(coords, G.abelian_spec):
        a = a * d + (x % d)
    return a


def check_partial_order(poset):
    """Raise unless the order matrix is reflexive, antisymmetric and
    transitive; True otherwise."""
    m = poset.leq_matrix
    n = len(m)
    for i in range(n):
        if not m[i][i]:
            raise AssertionError("order not reflexive")
        for j in range(n):
            if i != j and m[i][j] and m[j][i]:
                raise AssertionError("order not antisymmetric")
            if m[i][j]:
                for k in range(n):
                    if m[j][k] and not m[i][k]:
                        raise AssertionError("order not transitive")
    return True


def isomorphic_by_key(p1, p2, key):
    """Check isomorphism by matching elements with identical canonical keys.

    Returns the index bijection p1 -> p2, or None when the keys are not
    unique, their multisets differ, or the matched bijection fails to
    preserve the order both ways.
    """
    k1 = [key(e) for e in p1.elements]
    k2 = [key(e) for e in p2.elements]
    if sorted(k1) != sorted(k2) or len(set(k1)) != len(k1):
        return None
    lookup = {k: idx for idx, k in enumerate(k2)}
    mapping = [lookup[k] for k in k1]
    n = len(p1.elements)
    for i in range(n):
        for j in range(n):
            if p1.leq_matrix[i][j] != p2.leq_matrix[mapping[i]][mapping[j]]:
                return None
    return tuple(mapping)


def fix_subspace_via_kernels(rep, elems):
    """Intersection of the kernels of rho(g) - I, one meet at a time, on
    the Fraction matrices and ignoring any character shortcut."""
    dim = rep.matrix_dim
    space = Subspace.full(dim)
    ident = RMatrix.identity(dim)
    for g in elems:
        if g == rep.group.identity:
            continue
        space = space.intersect(kernel(rep.matrix(g).sub(ident)))
    return space


def pointwise_stabilizer_by_definition(rep, subspace):
    """All g with rho(g) v = v for every basis vector v of the subspace,
    on the Fraction matrices."""
    return Subgroup(
        tuple(
            g
            for g in range(rep.group.order)
            if all(rep.matrix(g).apply(v) == v for v in subspace.basis)
        )
    )


def closure_by_definition(inst, H):
    """phi(H), the pointwise stabilizer of the fixed space of H, from the
    two Fraction oracles above."""
    fixed = fix_subspace_via_kernels(inst.rep, H.elements)
    return pointwise_stabilizer_by_definition(inst.rep, fixed)


def dowling_hyperplane_lattice(r, n):
    """Intersection lattice of the rank-n full monomial reflection
    arrangement over the r-th roots of unity, built from the hyperplane
    list x_j = zeta^k x_i (i < j) and x_i = 0, realized over Q through the
    companion matrix of the r-th cyclotomic polynomial."""
    comp = companion_matrix(cyclotomic_polynomial(r))
    deg = comp.rows
    powers = [RMatrix.identity(deg)]
    for _ in range(1, r):
        powers.append(powers[-1].mul(comp))
    ambient = n * deg
    hyperplanes = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(r):
                rows = []
                for c in range(deg):
                    row = [Fraction(0)] * ambient
                    row[j * deg + c] = Fraction(1)
                    for cc in range(deg):
                        row[i * deg + cc] -= powers[k].entries[c][cc]
                    rows.append(tuple(row))
                hyperplanes.append(kernel(RMatrix(tuple(rows))))
        rows = []
        for c in range(deg):
            row = [Fraction(0)] * ambient
            row[i * deg + c] = Fraction(1)
            rows.append(tuple(row))
        hyperplanes.append(kernel(RMatrix(tuple(rows))))
    full = Subspace.full(ambient)
    elems = {full.basis: full}
    for h in hyperplanes:
        elems[h.basis] = h
    work = list(elems.values())
    while work:
        cur = work.pop()
        for h in hyperplanes:
            meet = cur.intersect(h)
            if meet.basis not in elems:
                elems[meet.basis] = meet
                work.append(meet)
    ordered = sorted(elems.values(), key=lambda s: (-s.dim, s.basis))
    matrix = [[a.contains(b) for b in ordered] for a in ordered]
    return Poset(ordered, matrix)


def lattice_oracle(inst):
    """The intersection lattice closed by rational subspace meets.

    Each meet is perp -> sum -> perp (`Subspace.intersect`) and the order
    matrix is N^2 `Subspace.contains` tests; same elements, order and cap
    semantics as `arrangement.intersection_lattice`.
    """
    cap = inst.cap_lattice
    raw = raw_arrangement(inst)
    elems = {}

    def admit(s):
        if len(elems) >= cap:
            raise SizeBoundExceeded(
                f"intersection lattice exceeded the cap of {cap} elements"
            )
        elems[s.basis] = s

    for s in (Subspace.full(inst.ambient_dim), *raw):
        admit(s)
    worklist = list(elems.values())
    while worklist:
        current = worklist.pop()
        for gen in raw:
            meet = current.intersect(gen)
            if meet.basis not in elems:
                admit(meet)
                worklist.append(meet)
    ordered = sorted(elems.values(), key=lambda s: (-s.dim, s.basis))
    matrix = [[a.contains(b) for b in ordered] for a in ordered]
    return Poset(ordered, matrix)


class FractionSeries:
    """Reference truncated series: a plain dict {exponents: Fraction}.

    The dict-of-Fraction arithmetic `MultiSeries` used before it moved to
    integer numerators over a common denominator, kept as the definition its
    operators are checked against.  Every result is rebuilt through the
    constructor, which drops zero coefficients and terms past the bound.
    """

    def __init__(self, vars, trunc, coeffs=None):
        self.vars = tuple(vars)
        self.trunc = trunc
        self._s_index = self.vars.index("s") if "s" in self.vars else None
        self.coeffs = {}
        for exps, c in (coeffs or {}).items():
            c = Fraction(c)
            if c != 0 and self.t_degree(exps) <= trunc:
                self.coeffs[tuple(exps)] = c

    def t_degree(self, exps):
        return sum(e for i, e in enumerate(exps) if i != self._s_index)

    def _new(self, coeffs, vars=None):
        return FractionSeries(self.vars if vars is None else vars, self.trunc, coeffs)

    def _constant(self, value=1):
        return self._new({tuple(0 for _ in self.vars): value})

    def add(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return self._new(out)

    def scale(self, value):
        value = Fraction(value)
        return self._new({e: c * value for e, c in self.coeffs.items()})

    def mul(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if self.t_degree(e) <= self.trunc:
                    out[e] = out.get(e, 0) + c1 * c2
        return self._new(out)

    def exp(self):
        """exp(A) for A with no term of t-degree zero."""
        assert all(self.t_degree(e) > 0 for e in self.coeffs)
        result = term = self._constant()
        for k in range(1, self.trunc + 1):
            term = term.mul(self).scale(Fraction(1, k))
            result = result.add(term)
        return result

    def inverse(self):
        """1/A when the t-degree-zero part is a nonzero constant."""
        zero = tuple(0 for _ in self.vars)
        c = self.coeffs[zero]
        assert all(self.t_degree(e) > 0 for e in self.coeffs if e != zero)
        rest = self._new({e: -v / c for e, v in self.coeffs.items() if e != zero})
        result = term = self._constant()
        for _ in range(self.trunc):
            term = term.mul(rest)
            result = result.add(term)
        return result.scale(1 / c)

    def derive(self, var):
        idx = self.vars.index(var)
        out = {}
        for e, c in self.coeffs.items():
            if e[idx]:
                shifted = tuple(x - 1 if i == idx else x for i, x in enumerate(e))
                out[shifted] = out.get(shifted, 0) + c * e[idx]
        return self._new(out)

    def integrate(self, var):
        idx = self.vars.index(var)
        assert all(self.t_degree(e) < self.trunc for e in self.coeffs)
        out = {}
        for e, c in self.coeffs.items():
            shifted = tuple(x + 1 if i == idx else x for i, x in enumerate(e))
            out[shifted] = c / shifted[idx]
        return self._new(out)

    def eval_var(self, var, value):
        idx = self.vars.index(var)
        value = Fraction(value)
        out = {}
        for e, c in self.coeffs.items():
            reduced = tuple(x for i, x in enumerate(e) if i != idx)
            out[reduced] = out.get(reduced, 0) + c * value ** e[idx]
        return self._new(out, tuple(v for v in self.vars if v != var))

    def merge_vars(self, sources, target):
        src = {self.vars.index(v) for v in sources}
        new_vars = tuple(v for i, v in enumerate(self.vars) if i not in src)
        out = {}
        for e, c in self.coeffs.items():
            base = [x for i, x in enumerate(e) if i not in src]
            base[new_vars.index(target)] += sum(e[i] for i in src)
            key = tuple(base)
            out[key] = out.get(key, 0) + c
        return self._new(out, new_vars)

    def embed(self, vars):
        positions = [vars.index(v) for v in self.vars]
        out = {}
        for e, c in self.coeffs.items():
            exps = [0] * len(vars)
            for p, x in zip(positions, e):
                exps[p] = x
            out[tuple(exps)] = c
        return self._new(out, tuple(vars))

    def terms(self):
        """Sorted (exponents, coefficient) pairs, as `series_to_json` reads them."""
        return sorted(self.coeffs.items())


def clique_count_by_walk(inst):
    """The cliques of the compatibility table, counted one step per clique:
    the walk `count_nested_sets` memoises per candidate mask, without the
    memo and without the cap check."""
    compat, _ = _compatibility(inst, building_blocks(inst))

    def cliques(cand):
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            rest = cand & compat[low.bit_length() - 1]
            total += 1 + (cliques(rest) if rest else 0)
        return total

    return cliques((1 << len(compat)) - 1)
