"""The arrangement of a triple (n, G, V): closed subgroups, blocks, nested sets.

The arrangement lives in V^n and consists of the subspaces

    H(i, j, g) = { v : v_j = rho(g) v_i }        for i < j and g in G,
    H(i, i, g) = { v : v_i = rho(g) v_i }        for g != e.

Its intersection lattice (ordered by reverse inclusion) is a generalized
Dowling lattice.  The minimal building set consists of the blocks

    H^K(i_1^{g_1 K}, ..., i_k^{g_k K})
        = { v : v_{i_1} = g_1 w, ..., v_{i_k} = g_k w,  w in Fix(K) }

with K a closed subgroup (K != {e} when k = 1).  Conjugating K moves a
block to an equal subspace, so blocks are stored in the normal form whose
first coset is eK; for closed K that normal form is unique per subspace.

The flats of the lattice are read from the blocks, with no subspace met:
a flat is one set of blocks with pairwise disjoint index sets, at most one
labelled G (Hanlon's generalized Dowling lattice).  `flat_counts` counts
them by dimension with one exponential generating series, and
`intersection_lattice` lists them with their order (proofs there).

Everything downstream (compatibility, nestedness) is phrased dually to the
annihilator picture: a family of annihilators is in direct sum exactly when
the codimension of the intersection of the blocks equals the sum of their
codimensions, and the annihilator sum lands in the building set exactly
when that intersection is itself a block subspace.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import lcm
from operator import and_, attrgetter, itemgetter, mul

from . import egf
from .errors import InstanceError, SizeBoundExceeded
from .frozen import Frozen, _set
from .groups import (
    Subgroup,
    conjugate_subgroup,
    coset_rep,
    enumerate_subgroups,
    generating_set,
    subgroup_closure,
    subgroup_conj_classes,
)
from .linalg import Subspace, integer_echelon, pivot_columns, unit_rows
from .poset import Poset, bits
from .reps import pointwise_stabilizer, stabilizer

DEFAULT_CAP_LATTICE = 10**6
DEFAULT_CAP_NESTED = 10**7


class ProblemInstance:
    """Immutable bundle (n, G, V) plus caches for derived data."""

    def __init__(self, n, group, rep, names=None, cap_lattice=None, cap_nested=None):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InstanceError(f"n: expected a positive integer, got {n!r}")
        if rep.group is not group:
            raise InstanceError("representation does not belong to the given group")
        self.n = n
        self.group = group
        self.rep = rep
        self.names = dict(names or {})
        self.cap_lattice = _cap("cap_lattice", cap_lattice, DEFAULT_CAP_LATTICE)
        self.cap_nested = _cap("cap_nested", cap_nested, DEFAULT_CAP_NESTED)
        self._subgroups = None
        self._conj = None
        self._closed = None
        self._codes = None
        self._clique = None
        self._blocks = None
        self._block_subspaces = {}
        self._meet_cache = {}
        self._recon_cache = {}

    # -- cached group-level data ---------------------------------------------

    @property
    def ambient_dim(self):
        return self.n * self.rep.matrix_dim

    @property
    def block_width(self):
        return self.rep.matrix_dim

    def subgroups(self):
        if self._subgroups is None:
            self._subgroups = tuple(enumerate_subgroups(self.group))
        return self._subgroups

    def conj_classes(self):
        if self._conj is None:
            self._conj = subgroup_conj_classes(self.group, self.subgroups())
        return self._conj

    def subgroup_label(self, H):
        return self.names.get(H.elements, H.label())

    def meet(self, A, B):
        """Cached subspace intersection (used by the `is_nested` oracle),
        keyed by the integer echelons of A and B."""
        a, b = A.echelon, B.echelon
        key = (a, b) if a <= b else (b, a)
        got = self._meet_cache.get(key)
        if got is None:
            got = A.intersect(B)
            self._meet_cache[key] = got
        return got

    def with_n(self, n):
        """Same group and representation, different number of factors."""
        inst = ProblemInstance(
            n,
            self.group,
            self.rep,
            names=self.names,
            cap_lattice=self.cap_lattice,
            cap_nested=self.cap_nested,
        )
        inst._subgroups = self._subgroups
        inst._conj = self._conj
        inst._closed = self._closed
        return inst


def _cap(name, value, default):
    """A size cap: None for the default, else an int >= 0 (not a bool)."""
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InstanceError(f"{name}: expected a nonnegative integer, got {value!r}")
    return value


# -- closure operator and closed subgroups -----------------------------------


def closure_phi(inst, H):
    """The largest subgroup with the same fixed subspace as H.

    Computed as the pointwise stabilizer of Fix(H), on the integer
    echelon of Fix(H); this is a closure operator (extensive, idempotent,
    monotone).
    """
    rep = inst.rep
    if rep.char_exponents is not None:
        coords = rep.fixed_coordinates(H.elements)
        members = tuple(
            g
            for g in range(inst.group.order)
            if all(rep.char_exponents[g][j] == 0 for j in coords)
        )
        return Subgroup(members)
    return stabilizer(rep, rep.fix_echelon(H))


class ClosedSubgroupSet(Frozen):
    """The closed subgroups, sorted by (size, elements), and the pairs
    (subgroup, phi(subgroup)) over all subgroups.  The lookups built from
    them here take no part in equality, hashing or repr."""

    __slots__ = ("members", "closure_map", "_closed", "_phi")
    _fields = ("members", "closure_map")

    def __init__(self, members, closure_map):
        _set(self, "members", members)
        _set(self, "closure_map", closure_map)
        _set(self, "_closed", frozenset(K.elements for K in members))
        _set(self, "_phi", {S.elements: P for S, P in closure_map})

    def __contains__(self, H):
        return H.elements in self._closed

    def phi(self, H):
        try:
            return self._phi[H.elements]
        except KeyError:
            raise KeyError(H) from None

    @property
    def proper(self):
        """Closed subgroups other than the full group, which sorts last."""
        return self.members[:-1]


def closed_subgroups(inst):
    """The subgroups fixed by the closure operator, with the full phi map."""
    if inst._closed is not None:
        return inst._closed
    pairs = [(H, closure_phi(inst, H)) for H in inst.subgroups()]
    closed = [H for H, P in pairs if P.elements == H.elements]
    result = ClosedSubgroupSet(
        members=tuple(sorted(closed, key=lambda K: K.sort_key)),
        closure_map=tuple(pairs),
    )
    _check_closed_set(inst, result)
    inst._closed = result
    return result


def _check_closed_set(inst, cs):
    G = inst.group
    whole = Subgroup(tuple(range(G.order)))
    trivial = Subgroup((G.identity,))
    if trivial not in cs or whole not in cs:
        raise InstanceError("closed subgroups must include {e} and G")
    seen = set()
    for K in cs.members:
        key = inst.rep.fix_echelon(K)
        if key in seen:
            raise InstanceError("two closed subgroups share a fixed subspace")
        seen.add(key)
    # stable under conjugation by each generator, so by every word in them;
    # not checked when G is abelian, as then g K g^-1 = K for every K and g
    gens = () if G.is_abelian else generating_set(G)
    for K in cs.members:
        for g in gens:
            if conjugate_subgroup(G, K, g) not in cs:
                raise InstanceError("closed subgroups are not conjugation-stable")


# -- raw arrangement ------------------------------------------------------------


def free_factor_subspace(inst, rows, factors, elements):
    """{ v : v_f = rho(g) w for (f, g) in zip(factors, elements), w in W }.

    W is the subspace of V spanned by the integer `rows` (an
    `integer_echelon`, such as `fix_echelon(K)`), `factors` are 0-based and
    every factor not listed is free.  Every raw subspace and every block has this shape: H(i, j, g)
    is (V, (i, j), (e, g)), H(i, i, g) is (Fix<g>, (i,), (e,)), and
    H^K(i_1^{g_1 K}, ...) is (Fix(K), (i_1 - 1, ...), (g_1, ...)).

    Only the span matters, so each spanning vector is scaled to integers:
    with rho(g) = rows_g / den_g and w one of the integer rows, the vector
    holds (L / den_g) rows_g w at factor f, L the lcm of the
    den_g, which is L times the true one.  No Fraction is built.
    """
    b = inst.block_width
    d = inst.ambient_dim
    forms = [inst.rep.forms[g] for g in elements]
    scale = lcm(*(den for _, den in forms))
    vectors = []
    for w in rows:
        v = [0] * d
        for f, (rows_g, den) in zip(factors, forms):
            k = scale // den
            v[f * b : (f + 1) * b] = [k * sum(map(mul, row, w)) for row in rows_g]
        vectors.append(v)
    for f in range(inst.n):
        if f not in factors:
            vectors.extend(unit_rows(d, range(f * b, (f + 1) * b)))
    return Subspace(d, integer_echelon(vectors))


def raw_arrangement(inst):
    """The subspaces H(i, j, g), deduplicated and canonically ordered."""
    G = inst.group
    e = G.identity
    V = inst.rep.fix_echelon(Subgroup((e,)))  # Fix({e}) = V: unit rows
    seen = {}
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            for g in G.elements():
                s = free_factor_subspace(inst, V, (i, j), (e, g))
                seen[s.echelon] = s
        for g in G.elements():
            if g != e:
                fix_g = inst.rep.fix_echelon(subgroup_closure(G, (g,)))
                s = free_factor_subspace(inst, fix_g, (i,), (e,))
                seen[s.echelon] = s
    return sorted(seen.values(), key=lambda s: s.sort_key)


# -- blocks -------------------------------------------------------------------


class Block(Frozen):
    """Building-set element in normal form.

    indices are 1-based and strictly increasing; cosets[r] is the canonical
    representative of the coset attached to indices[r], and cosets[0] is
    always the representative of eK (element id 0).  The sort key is built
    once, here, and takes no part in equality, hashing or repr.
    """

    __slots__ = ("subgroup", "indices", "cosets", "sort_key")
    _fields = ("subgroup", "indices", "cosets")

    def __init__(self, subgroup, indices, cosets):
        _set(self, "subgroup", subgroup)
        _set(self, "indices", indices)
        _set(self, "cosets", cosets)
        _set(self, "sort_key", (subgroup.sort_key, indices, cosets))

    def describe(self, inst=None):
        name = inst.subgroup_label(self.subgroup) if inst else self.subgroup.label()
        parts = ",".join(
            f"{i}^{c}" for i, c in zip(self.indices, self.cosets)
        )
        return f"H^{name}({parts})"


def block_subspace(inst, block):
    got = inst._block_subspaces.get(block)
    if got is None:
        fix_K = inst.rep.fix_echelon(block.subgroup)
        got = free_factor_subspace(
            inst, fix_K, tuple(i - 1 for i in block.indices), block.cosets
        )
        free = inst.n - len(block.indices)
        expected = len(fix_K) + free * inst.block_width
        if got.dim != expected:
            raise InstanceError(
                f"block {block.describe()} has dim {got.dim}, expected {expected}"
            )
        inst._block_subspaces[block] = got
    return got


def _block_codes(inst):
    """The blocks of `building_blocks` as integer codes (label, indices,
    cosets), the label being a position in `closed_subgroups(inst).members`.

    They are made in `Block.sort_key` order, so nothing is sorted: labels in
    `members` order, which is the order of the subgroups' sort keys, index
    tuples in lexicographic order, and cosets as the product of the sorted
    coset representatives.
    """
    if inst._codes is not None:
        return inst._codes
    # the nonempty subsets of {i..n} in lexicographic order, for i = n..1
    subsets = []
    for i in range(inst.n, 0, -1):
        subsets = [(i,)] + [(i,) + t for t in subsets] + subsets
    codes = []
    for label, K in enumerate(closed_subgroups(inst).members):
        reps = sorted({coset_rep(inst.group, K, g) for g in inst.group.elements()})
        for idxs in subsets:
            if len(idxs) > 1 or len(K) > 1:
                codes.extend(
                    (label, idxs, (0,) + tail)
                    for tail in product(reps, repeat=len(idxs) - 1)
                )
    inst._codes = tuple(codes)
    return inst._codes


def building_blocks(inst):
    """All blocks in normal form, in `Block.sort_key` order: one `Block` per
    code of `_block_codes`.

    Distinct normal forms have distinct subspaces, so no block is listed
    twice and none of their subspaces is built here.  Let two normal forms
    H^K(i_1^{g_1 K}, ...) and H^K'(i'_1^{g'_1 K'}, ...) share a subspace W.
      - Both index sets are the constrained factors of W, those whose
        coordinates do not all lie in W: with k >= 2 a vector nonzero at
        one index is nonzero at all of them, and with k = 1 the label is a
        closed K != {e}, so Fix(K) != V.  Hence the index sets are equal.
      - W projects onto the first index as Fix(K) = Fix(K'), since both
        first cosets are eK.  Distinct closed subgroups have distinct fixed
        spaces (`_check_closed_set`), so K = K'.
      - Over w in Fix(K), W ties v_{i_r} = g_r w = g'_r w.  That holds for
        every w exactly when g_r^-1 g'_r fixes Fix(K) pointwise, i.e. lies in
        phi(K) = K, as K is closed.  So g_r K = g'_r K, and the canonical
        coset representatives are equal.
    """
    if inst._blocks is None:
        members = closed_subgroups(inst).members
        inst._blocks = tuple(
            Block(members[label], idxs, cosets)
            for label, idxs, cosets in _block_codes(inst)
        )
    return inst._blocks


def block_count(inst):
    """len(building_blocks(inst)), computed without building a block.

    A closed K of index r gives C(n, k) r^(k-1) blocks on k indices (a coset
    at every index but the first), k = 1 excepted when K = {e}.  Summed over
    k >= 1 that is ((1 + r)^n - 1) / r, an exact division.
    """
    n = inst.n
    total = 0
    for K in closed_subgroups(inst).members:
        r = inst.group.order // len(K)
        total += ((1 + r) ** n - 1) // r - (n if len(K) == 1 else 0)
    return total


# -- order and compatibility ----------------------------------------------------


def block_leq(inst, b1, b2):
    """True iff subspace(b1) contains subspace(b2).

    Decided from the block data.  Write K1, K2 for the labels and, at each
    index i of b1, a_i = h_i^-1 g_i, where g_i is the coset of b1 at i and
    h_i that of b2.  Then b1 contains b2 exactly when
      (1) the indices of b1 are among those of b2,
      (2) a_i K1 a_i^-1 <= K2 for every index i of b1, and
      (3) a_j a_i^-1 lies in K2 for every pair of indices i, j of b1.
    With i_0 the first index of b1, (2) and (3) hold exactly when
    a_0 K1 a_0^-1 <= K2 and a_i a_0^-1 lies in K2 for every i: given these,
    a_i = k_i a_0 with k_i in K2, so a_j a_i^-1 = k_j k_i^-1 lies in K2 and
    a_i K1 a_i^-1 = k_i (a_0 K1 a_0^-1) k_i^-1 <= K2.  So one pass over the
    indices decides it.  The linear-algebra containment oracle must agree
    on every pair.
    """
    G = inst.group
    coset2 = dict(zip(b2.indices, b2.cosets))
    for idx in b1.indices:
        if idx not in coset2:
            return False
    k2 = set(b2.subgroup.elements)
    a = [G.mul(G.inv(coset2[idx]), g) for idx, g in zip(b1.indices, b1.cosets)]
    a0, a0_inv = a[0], G.inv(a[0])
    for x in b1.subgroup.elements:
        if G.conj(a0, x) not in k2:
            return False
    for ai in a[1:]:
        if G.mul(ai, a0_inv) not in k2:
            return False
    return True


def blocks_compatible(inst, b1, b2):
    """Can b1 and b2 live in a common nested set?

    Either comparable, or index-disjoint with at most one label equal to G.
    """
    if block_leq(inst, b1, b2) or block_leq(inst, b2, b1):
        return True
    if set(b1.indices) & set(b2.indices):
        return False
    whole = inst.group.order
    return not (len(b1.subgroup) == whole and len(b2.subgroup) == whole)


def _compatibility(inst):
    """`blocks_compatible` and `block_leq` over the blocks of `_block_codes`
    as bit masks by position: (compat, up), compat[k] the blocks other than
    block k compatible with it and up[k] the blocks c with `block_leq`(c,
    block k), block k included.  No `Block` is built.

    Take b = H^K(i_1^{e K}, i_2^{h_2 K}, ...) on the indices I.  A block c
    containing b has its indices in I, so its first index is i_1 or later.
      - c with first index i_1 has a_0 = e in `block_leq`, so it contains b
        exactly when its label L <= K and its coset at each further index j
        lies in h_j K.  F[b] is the mask of these, the coset test memoised
        per (j, K, h_j).
      - Let tail(b) be b restricted to i_2, ...: the v with v_{i_s} = h_s w,
        s >= 2, w in Fix(K), that is H^K'(i_2^{e K'}, i_s^{h_s h_2^-1 K'})
        with K' = h_2 K h_2^-1, as h_2 Fix(K) = Fix(K').  K' is closed since
        conjugates of closed subgroups are (`_check_closed_set`), so tail(b)
        is a block, or the whole space when it is one index labelled {e}.
        A c with first index after i_1 that contains b or tail(b) has its
        indices among i_2, ..., the only factors it constrains, where b and
        tail(b) project alike; so c contains b exactly when it contains
        tail(b).
    Hence up[b] = F[b] | up[tail(b)], tail(b) having a later first index.
    Comparable pairs are compatible; of the others, index-disjoint pairs are
    compatible unless both are labelled G, and overlapping pairs never are.
    """
    G, n = inst.group, inst.n
    table, order = G._mul, G.order
    members = closed_subgroups(inst).members
    label_of = {K.elements: label for label, K in enumerate(members)}
    codes = _block_codes(inst)
    pos = {code: k for k, code in enumerate(codes)}
    with_label = [0] * len(members)
    first_at = [[] for _ in range(n + 1)]  # the positions by first index
    at = [0] * ((n + 1) * order)  # [i * order + g]: coset g at index i
    inside = [0] * (1 << n)  # by index set (bit i - 1 for index i)
    spans = []
    for k, (label, idxs, cosets) in enumerate(codes):
        bit = 1 << k
        with_label[label] |= bit
        first_at[idxs[0]].append(k)
        for i, g in zip(idxs, cosets):
            at[i * order + g] |= bit
        span = sum(1 << i - 1 for i in idxs)
        spans.append(span)
        inside[span] |= bit
    # subset sums: inside[s] becomes the blocks on indices inside s
    for i in range(n):
        for s in range(1 << n):
            if s >> i & 1:
                inside[s] |= inside[s ^ 1 << i]
    full = (1 << n) - 1
    sets = [set(K.elements) for K in members]
    below = [sum(x for L, x in zip(sets, with_label) if L <= K) for K in sets]
    ties, conj, rep = {}, {}, {}
    up = [0] * len(codes)
    for i0 in range(n, 0, -1):
        firsts = sum(1 << k for k in first_at[i0])
        for k in first_at[i0]:
            label, idxs, cosets = codes[k]
            sel = firsts & inside[spans[k]] & below[label]
            for j, h in zip(idxs[1:], cosets[1:]):
                tie = ties.get((j, label, h))
                if tie is None:
                    tie = ties[j, label, h] = inside[full ^ 1 << j - 1] | sum(
                        at[j * order + table[h][x]] for x in members[label].elements
                    )
                sel &= tie
            # label 0 is {e}: a tail of one index labelled {e} is no block
            if len(idxs) > 2 or len(idxs) == 2 and label:
                h2 = cosets[1]
                K2 = conj.get((label, h2))
                if K2 is None:
                    K2 = conj[label, h2] = label_of[
                        tuple(sorted(G.conj(h2, x) for x in members[label].elements))
                    ]
                h2_inv = G.inv(h2)
                tail = [0]
                for h in cosets[2:]:
                    g = table[h][h2_inv]
                    r = rep.get((K2, g))
                    if r is None:
                        r = rep[K2, g] = coset_rep(G, members[K2], g)
                    tail.append(r)
                sel |= up[pos[K2, idxs[1:], tuple(tail)]]
            up[k] = sel
    down = [0] * len(codes)
    for k, rest in enumerate(up):
        while rest:
            low = rest & -rest
            rest ^= low
            down[low.bit_length() - 1] |= 1 << k
    g_blocks = with_label[-1]
    return [
        (inside[full ^ s] & ~(g_blocks if g_blocks >> k & 1 else 0) | up[k] | down[k])
        & ~(1 << k)
        for k, s in enumerate(spans)
    ], up


def is_block_subspace(inst, W):
    """Reconstruct the normal-form block with subspace W, or None.

    Works without enumerating the building set: the constrained factors are
    those whose full coordinate block is not inside W; the tied structure is
    then a graph over the first constrained factor, whose projection must be
    the fixed space of a closed subgroup.
    """
    key = W.echelon
    if key in inst._recon_cache:
        return inst._recon_cache[key]
    result = _reconstruct_block(inst, W)
    inst._recon_cache[key] = result
    return result


def _reconstruct_block(inst, W):
    b = inst.block_width
    d = inst.ambient_dim
    constrained = [
        f
        for f in range(inst.n)
        if not all(map(W.contains_vector, unit_rows(d, range(f * b, (f + 1) * b))))
    ]
    if not constrained:
        return None
    # W contains every free factor, so W = tied + free: the tied part, W met
    # with the constrained coordinates, is W with the free coordinates zeroed
    kept = {c for f in constrained for c in range(f * b, (f + 1) * b)}
    tied = integer_echelon(
        [[x if c in kept else 0 for c, x in enumerate(v)] for v in W.echelon]
    )
    j1 = constrained[0]
    proj = integer_echelon([v[j1 * b : (j1 + 1) * b] for v in tied])
    if len(proj) != len(tied):
        return None
    # find, per further factor, a group element carrying the j1 component
    carries = []
    for f in constrained[1:]:
        found = None
        for g, (rows, den) in enumerate(inst.rep.forms):
            # rho(g) x = y with rho(g) = rows / den, row by row
            if all(
                sum(map(mul, row, v[j1 * b : (j1 + 1) * b])) == den * y
                for v in tied
                for row, y in zip(rows, v[f * b : (f + 1) * b])
            ):
                found = g
                break
        if found is None:
            return None
        carries.append(found)
    K = pointwise_stabilizer(inst.rep, Subspace(b, proj))
    if len(constrained) == 1 and len(K) == 1:
        return None
    indices = tuple(f + 1 for f in constrained)
    cosets = (0,) + tuple(coset_rep(inst.group, K, g) for g in carries)
    candidate = Block(subgroup=K, indices=indices, cosets=cosets)
    # This check also makes K closed.  K fixes proj, so proj <= Fix(K); with
    # f free factors the candidate's subspace has dim Fix(K) + f b and W has
    # dim proj + f b.  Equal subspaces give Fix(K) = proj, so
    # phi(K) = stab(Fix(K)) = stab(proj) = K.
    if block_subspace(inst, candidate) != W:
        return None
    return candidate


# -- intersection lattice ---------------------------------------------------------


def flat_counts(inst):
    """The flats of the intersection lattice counted by dimension, as
    {dim: count} by decreasing dim, found without building a block or a
    subspace.

    A flat is a set of blocks with pairwise disjoint index sets, at most one
    labelled G (proof in `intersection_lattice`): a set partition of {1..n}
    into free indices and blocks, of codimension the sum of the blocks'.
    With m = `block_width`, a part of size k carries [G:K]^(k-1) blocks
    labelled K != G, of codimension k m - dim Fix(K) (none for k = 1 and
    K = {e}, the whole space), and one labelled G, of codimension k m as
    Fix(G) = 0.  Let p_k be the polynomial in x, by codimension, of the
    parts of size k not labelled G (x^0 for a free index).  A G part on S
    has the codimension |S| m of |S| singleton G parts, and each S is the
    union of one set of singletons, so "at most one G part" has the weights
    of "any number of G parts of size 1", and

      sum over flats of x^codim = n! [X^n] exp(x^m X + sum_k p_k X^k / k!),

    `egf.exp` in the one variable x.

    Raises SizeBoundExceeded when the total is above the instance's lattice
    cap.  A G block on any nonempty set of indices is a flat, and so is the
    whole space, so there are at least 2^n flats: an n with 2^n above the
    cap is refused without the count.
    """
    n, m, cap = inst.n, inst.block_width, inst.cap_lattice
    if n >= cap.bit_length():
        raise SizeBoundExceeded(
            f"the intersection lattice at n={n} has at least 2^{n} elements, "
            f"above the cap of {cap}"
        )
    order = inst.group.order
    labels = [
        (len(K) == 1, order // len(K), len(inst.rep.fix_echelon(K)))
        for K in closed_subgroups(inst).members
        if len(K) != order
    ]
    parts = [{}]
    for k in range(1, n + 1):
        p = {0: 1, m: 1} if k == 1 else {}  # a free index; a G part of size 1
        for trivial, r, fix_dim in labels:
            if k > 1 or not trivial:
                c = k * m - fix_dim
                p[c] = p.get(c, 0) + r ** (k - 1)
        parts.append(p)
    counts = {n * m - c: x for c, x in egf.exp(parts)[n].items()}
    total = sum(counts.values())
    if total > cap:
        raise SizeBoundExceeded(
            f"the intersection lattice at n={n} has {total} elements, "
            f"above the cap of {cap}"
        )
    return dict(sorted(counts.items(), reverse=True))


def disjoint_covers(S, g_free, parts_at):
    """Every cover of the bit set S by pairwise disjoint parts, as a list of
    tuples of the parts' items, at most one part marked G, and none unless
    g_free.

    `parts_at(i, S)` gives (mask, marked G, item) for the parts whose lowest
    bit is i, and may leave out those not within S.  A cover lists the part
    holding the lowest bit of S first, then a cover of the rest, so the
    covers come in the order of the lists.  The covers of each rest are
    found once per call; covering 0 gives the empty cover alone.
    """
    memo = {(0, True): [()], (0, False): [()]}

    def covers(S, g_free):
        out = []
        add = out.append
        for mask, marked, item in parts_at((S & -S).bit_length() - 1, S):
            if S & mask == mask and (g_free or not marked):
                key = (S ^ mask, g_free and not marked)
                rests = memo.get(key)
                if rests is None:
                    rests = memo[key] = covers(*key)
                for rest in rests:
                    add((item, *rest))
        return out

    return covers(S, g_free) if S else [()]


def intersection_lattice(inst):
    """The flats of the arrangement ordered by reverse inclusion, as a Poset
    with the ambient space as bottom and the elements sorted by
    (-dim, basis).  The flats are listed as block sets, the generalized
    Dowling lattice of Hanlon ("The generalized Dowling lattices", Trans.
    AMS 325, 1991).

    Every flat is one set S of blocks with pairwise disjoint index sets, at
    most one labelled G, the flat being the intersection of S.
      - Such an intersection is a flat: a block H^K(i_1^{e K}, ...,
        i_k^{g_k K}) is the intersection of the raw H(i_1, i_r, g_r) and
        H(i_1, i_1, h) for h in K, as Fix(K) is the meet of the Fix<h>.
      - Every flat is one: H(i, j, g) is the block H^{e}(i^e, j^g) and
        H(i, i, g) the block H^phi<g>(i).  Two blocks sharing an index meet
        in one block on the union of their indices: the tied vectors w of
        the first that the second admits form Fix(L), L generated by the
        first label, a conjugate of the second and the coset mismatches at
        the shared indices, and Fix(L) = Fix(phi(L)).  Two blocks labelled
        G on disjoint indices meet in the G block on the union, as
        Fix(G) = 0.  So any intersection merges into such a set.
      - S is unique, by the lemma: a block c containing the intersection
        W of S contains a block of S.  Write T_b for the tied part of b in
        S, of dim Fix(K_b) on the coordinates of its indices I_b and
        injective onto each of their factors, so W is the sum of the T_b
        and the coordinates of the free indices.  The indices J of c hold
        no free index, whose coordinates lie in W but not all in c.  Were
        j in J within I_b and j' in J within I_b', b != b', a nonzero t in
        T_b would lie in W, so in c, nonzero at j and zero at j'; the tied
        part of c is injective onto the factor j' (or 0 when c is labelled
        G), so T_b = 0, likewise T_b' = 0, and b, b' would both be labelled
        G.  Hence J lies within one I_b, and c contains b: a vector of b is
        t + u with t in T_b, so in W, and u zero on I_b, so in c.  Distinct
        blocks of S have disjoint indices and contain neither other, so S
        is the set of minimal blocks containing W.

    The order.  Let mask(A) be the bit mask of the blocks that contain the
    flat A.  By the lemma it is the union, over the blocks b of A's set, of
    up(b), the blocks c with `block_leq`(c, b), from `_compatibility`.  A is
    the intersection of mask(A), as its own blocks are in it.  So A contains B exactly when mask(A) is a
    subset of mask(B): if it is, B is the intersection of a larger set;
    conversely a block containing A contains B.

    The echelon.  The flat is a direct sum on disjoint coordinates, so its
    `integer_echelon` joins the echelon rows of each T_b, the rows of
    `block_subspace`(b) supported on I_b, and the free coordinates' unit
    rows.  T_b projects injectively onto its smallest index, so its pivots
    lie there; `disjoint_covers` lists the parts by smallest index, so the
    rows come sorted by pivot and no elimination runs per flat.

    The flats are the disjoint covers of {1..n} whose parts are a free
    index or a block, the blocks labelled G the marked parts, as
    `enumerate_forests` places leaves.  Raises SizeBoundExceeded by
    `flat_counts` before any block is built when the flats are more than
    the instance's lattice cap.
    """
    flat_counts(inst)
    d, m, n = inst.ambient_dim, inst.block_width, inst.n
    whole = inst.group.order
    blocks = building_blocks(inst)
    _, ups = _compatibility(inst)
    tied = []
    for b in blocks:
        own = {c for i in b.indices for c in range((i - 1) * m, i * m)}
        tied.append(
            tuple(
                row
                for row in block_subspace(inst, b).echelon
                if all(c in own for c, x in enumerate(row) if x)
            )
        )
    # The flats sort by (-dim, basis), the RREF bases compared entry by
    # entry.  An echelon row times L // pivot, L the lcm of every pivot, is
    # its RREF row times L: integers in the same order, so these rows sort
    # the flats as the Fraction rows would (a scale per flat would not).
    L = lcm(*(row[p] for rows in tied for row, p in zip(rows, pivot_columns(rows))))

    def part(rows, up):
        scales = (L // row[p] for row, p in zip(rows, pivot_columns(rows)))
        return rows, tuple(tuple(k * x for x in row) for k, row in zip(scales, rows)), up

    # parts[i]: (index bits, labelled G, (echelon rows, RREF rows times L,
    # up mask)) of each part whose smallest index is i, the free index first
    parts = [[] for _ in range(n + 1)]
    for i in range(1, n + 1):
        parts[i].append((1 << i, False, part(unit_rows(d, range((i - 1) * m, i * m)), 0)))
    for b, up, rows in zip(blocks, ups, tied):
        span = sum(1 << i for i in b.indices)
        parts[b.indices[0]].append((span, len(b.subgroup) == whole, part(rows, up)))
    flats = []
    for cover in disjoint_covers((1 << (n + 1)) - 2, True, lambda i, S: parts[i]):
        rows, key, mask = (), (), 0
        for more, scaled, up in cover:
            rows += more
            key += scaled
            mask |= up
        flats.append(((-len(rows), key), Subspace(d, rows), mask))
    flats.sort(key=itemgetter(0))
    # holding[c]: the flats whose mask holds block c.  The flats above A are
    # those whose mask holds all of mask(A), so up(A) is the AND of
    # holding[c] over c in mask(A), every flat when mask(A) is empty.
    holding = [0] * len(blocks)
    for j, (*_, mask) in enumerate(flats):
        for c in bits(mask):
            holding[c] |= 1 << j
    every = (1 << len(flats)) - 1
    up = [reduce(and_, [holding[c] for c in bits(mask)], every) for *_, mask in flats]
    return Poset([space for _, space, _ in flats], up)


# -- nested sets ----------------------------------------------------------------


class NestedSet(Frozen):
    """A nested set, its blocks sorted by their sort key."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        _set(self, "blocks", tuple(sorted(blocks, key=attrgetter("sort_key"))))

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


def pairwise_compatible(inst, blocks):
    blocks = list(blocks)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if not blocks_compatible(inst, blocks[i], blocks[j]):
                return False
    return True


def _antichain_violation(inst, blocks, leq, subspaces):
    """Search antichain subsets (of size >= 2) violating the nested condition.

    The violation is either a failure of codimension additivity (the
    annihilators are not in direct sum) or an intersection that is itself a
    block subspace (the annihilator sum lies in the building set).
    """
    m = len(blocks)
    ambient = inst.ambient_dim
    comparable = [
        [i != j and (leq[i][j] or leq[j][i]) for j in range(m)] for i in range(m)
    ]

    def extend(chosen, meet, codim_sum, start):
        if len(chosen) >= 2:
            if meet.codim != codim_sum:
                return True
            if is_block_subspace(inst, meet) is not None:
                return True
        for nxt in range(start, m):
            if any(comparable[nxt][c] for c in chosen):
                continue
            new_meet = inst.meet(meet, subspaces[nxt])
            if extend(chosen + [nxt], new_meet, codim_sum + subspaces[nxt].codim, nxt + 1):
                return True
        return False

    full = Subspace.full(ambient)
    return extend([], full, 0, 0)


def is_nested(inst, blocks):
    """Definition-level check quantifying over every antichain subset.

    The pairwise compatibility test is used as a sound fast rejection, after
    which every antichain of size >= 2 is verified.
    """
    blocks = sorted(set(blocks), key=attrgetter("sort_key"))
    if len(blocks) <= 1:
        return True
    if not pairwise_compatible(inst, blocks):
        return False
    leq = [[block_leq(inst, a, b) for b in blocks] for a in blocks]
    subspaces = [block_subspace(inst, b) for b in blocks]
    return not _antichain_violation(inst, blocks, leq, subspaces)


def enumerate_nested_sets(inst):
    """All nonempty nested sets, in depth-first lexicographic block order.

    The nested sets are exactly the cliques of the compatibility graph (the
    nested-set complex is a flag complex), so they are listed by a clique
    search over one bitset of compatible blocks per block (`_compatibility`).

    Proof that a pairwise-compatible set S is nested.  Take an antichain
    B_1, ..., B_r of S with r >= 2, with index sets I_a and labels K_a.
    Incomparable compatible blocks are index-disjoint, so the annihilator of
    B_a lives in the dual factors indexed by I_a, and the annihilators are in
    direct sum.  The intersection W constrains exactly the factors of
    I = I_1 u ... u I_r, and its part tied over I is the product T_1 x ... x
    T_r, T_a (of dimension dim Fix(K_a)) living on the factors of I_a.  Were
    W a block, it would be one over I, whose tied part projects injectively
    onto every factor of I.  Projecting onto a factor of I_a kills T_b for
    b != a, so every T_b = 0, i.e. Fix(K_b) = 0 and (K_b being closed)
    K_b = G for all b; two labels equal to G break compatibility.  Hence
    the annihilator sum is not in the building set.  Conversely every nested
    set is pairwise compatible: that is the fast rejection `is_nested` makes.

    `is_nested` (the definition, over every antichain) stays the oracle
    for this search in `selftest` and the tests.

    Raises SizeBoundExceeded before any block is built when the nested sets
    counted by `count_forests` (in bijection with the forests) pass the
    instance's nested-set cap.
    """
    return list(iter_nested_sets(inst))


def iter_nested_sets(inst):
    """The sets of `enumerate_nested_sets`, in its order, one at a time.

    The clique search walks an explicit stack of (picked blocks, candidate
    mask) pairs, so memory is bounded by the depth of the walk, not by the
    number of sets.  Raises SizeBoundExceeded when called, as
    `enumerate_nested_sets` does, not on the first set drawn.
    """
    compat = _clique_table(inst)
    return _cliques(building_blocks(inst), compat)


def _cliques(blocks, compat):
    picked, cand = (), (1 << len(blocks)) - 1
    stack = []  # the (picked, cand) pairs of the levels above
    while True:
        if not cand:
            if not stack:
                return
            picked, cand = stack.pop()
            continue
        low = cand & -cand
        cand ^= low
        idx = low.bit_length() - 1
        chosen = picked + (blocks[idx],)
        yield NestedSet(chosen)
        stack.append((picked, cand))
        picked, cand = chosen, cand & compat[idx]


def _clique_table(inst):
    """The compat masks of `_compatibility` for the clique search, after
    the cap check; made once per instance."""
    if inst._clique is None:
        from .forests import count_forests  # forests imports this module
        count_forests(inst)
        inst._clique = _compatibility(inst)[0]
    return inst._clique


def count_nested_sets(inst):
    """len(enumerate_nested_sets(inst)), counted by the same clique search
    with no nested set built, on integers.

    The number of cliques inside a candidate mask depends on the mask
    alone, so it is memoised per mask: the cost is one step per distinct
    candidate mask the walk meets, not one per nested set (S3 at n = 4 has
    677,183 nested sets and meets 6,893 masks).  Each mask is met after
    picking a clique, so the memo holds at most one entry per nested set,
    plus the full mask; `count_forests` has checked that count against the
    nested-set cap, which therefore bounds the memo too.

    Raises SizeBoundExceeded before any block is built, as
    `enumerate_nested_sets` does.
    """
    compat = _clique_table(inst)
    memo = {}

    def cliques(cand):
        total = memo.get(cand)
        if total is None:
            total, rest = 0, cand
            while rest:
                low = rest & -rest
                rest ^= low
                sub = rest & compat[low.bit_length() - 1]
                total += 1 + (cliques(sub) if sub else 0)
            memo[cand] = total
        return total

    return cliques((1 << len(compat)) - 1)


def nested_sets_poset(nested_sets):
    """Nested sets ordered by inclusion."""
    keys = [frozenset(ns.blocks) for ns in nested_sets]
    up = [sum(1 << j for j, b in enumerate(keys) if a <= b) for a in keys]
    return Poset(tuple(nested_sets), up)
