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

Everything downstream (compatibility, nestedness) is phrased dually to the
annihilator picture: a family of annihilators is in direct sum exactly when
the codimension of the intersection of the blocks equals the sum of their
codimensions, and the annihilator sum lands in the building set exactly
when that intersection is itself a block subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from operator import attrgetter

from .errors import InstanceError, SizeBoundExceeded
from .groups import (
    Subgroup,
    conjugate_subgroup,
    coset_rep,
    enumerate_subgroups,
    left_cosets,
    subgroup_closure,
    subgroup_conj_classes,
)
from .linalg import (
    ONE,
    ZERO,
    Subspace,
    in_row_space,
    integer_echelon,
    kernel_echelon,
    pivot_columns,
)
from .poset import Poset
from .reps import pointwise_stabilizer

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

    def fix(self, H):
        return self.rep.fix(H)

    def subgroup_label(self, H):
        return self.names.get(H.elements, H.label())

    def meet(self, A, B):
        """Cached subspace intersection (used by the `is_nested` oracle)."""
        key = (A.basis, B.basis) if A.basis <= B.basis else (B.basis, A.basis)
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

    Computed as the pointwise stabilizer of Fix(H); this is a closure
    operator (extensive, idempotent, monotone).
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
    return pointwise_stabilizer(rep, rep.fix(H))


@dataclass(frozen=True)
class ClosedSubgroupSet:
    members: tuple  # closed subgroups, sorted by (size, elements)
    closure_map: tuple  # pairs (subgroup, phi(subgroup)) over all subgroups

    def __contains__(self, H):
        return any(H.elements == K.elements for K in self.members)

    def phi(self, H):
        for S, P in self.closure_map:
            if S.elements == H.elements:
                return P
        raise KeyError(H)

    @property
    def proper(self):
        """Closed subgroups other than the full group."""
        full = max(len(K) for K in self.members)
        return tuple(K for K in self.members if len(K) != full)


def closed_subgroups(inst):
    """The subgroups fixed by the closure operator, with the full phi map."""
    if inst._closed is not None:
        return inst._closed
    pairs = []
    closed = []
    for H in inst.subgroups():
        P = closure_phi(inst, H)
        pairs.append((H, P))
        if P.elements == H.elements:
            closed.append(H)
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
    seen = {}
    for K in cs.members:
        key = inst.fix(K).basis
        if key in seen:
            raise InstanceError("two closed subgroups share a fixed subspace")
        seen[key] = K
    for K in cs.members:
        for g in G.elements():
            if conjugate_subgroup(G, K, g) not in cs:
                raise InstanceError("closed subgroups are not conjugation-stable")


# -- raw arrangement and intersection lattice ---------------------------------


def free_factor_subspace(inst, W, factors, elements):
    """{ v : v_f = rho(g) w for (f, g) in zip(factors, elements), w in W }.

    W is a subspace of V, `factors` are 0-based and every factor not listed
    is free.  Every raw subspace and every block has this shape: H(i, j, g)
    is (V, (i, j), (e, g)), H(i, i, g) is (Fix<g>, (i,), (e,)), and
    H^K(i_1^{g_1 K}, ...) is (Fix(K), (i_1 - 1, ...), (g_1, ...)).
    """
    b = inst.block_width
    d = inst.ambient_dim
    mats = [inst.rep.matrix(g) for g in elements]
    vectors = []
    for w in W.basis:
        v = [ZERO] * d
        for f, mat in zip(factors, mats):
            v[f * b : (f + 1) * b] = mat.apply(w)
        vectors.append(v)
    for f in range(inst.n):
        if f not in factors:
            for c in range(f * b, (f + 1) * b):
                v = [ZERO] * d
                v[c] = ONE
                vectors.append(v)
    return Subspace.from_spanning(d, vectors)


def raw_arrangement(inst):
    """The subspaces H(i, j, g), deduplicated and canonically ordered."""
    G = inst.group
    e = G.identity
    V = Subspace.full(inst.block_width)
    seen = {}
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            for g in G.elements():
                s = free_factor_subspace(inst, V, (i, j), (e, g))
                seen[s.basis] = s
        for g in G.elements():
            if g != e:
                fix_g = inst.fix(subgroup_closure(G, (g,)))
                s = free_factor_subspace(inst, fix_g, (i,), (e,))
                seen[s.basis] = s
    return sorted(seen.values(), key=lambda s: s.sort_key)


def intersection_lattice(inst, cap=None):
    """Closure of the raw arrangement under intersection, as a Poset.

    Ordered by reverse inclusion, with the ambient space as bottom.  Each
    element of the closure is an intersection of raw subspaces, so it is
    enough to meet the flats found so far with the raw generators.

    A flat A is held as its constraint rows, the `integer_echelon` of its
    annihilator, and as mask(A), the set (a bitmask over `raw`) of the raw
    subspaces that contain it.  Meeting A with a raw H stacks their rows;
    when H is already in mask(A) the meet is A itself and is skipped.  A raw
    subspace contains a flat exactly when its rows lie in the flat's row
    space, and whatever contains A contains every meet below A, so a new
    flat's mask is its parent's mask, plus H, plus the other raw subspaces
    whose rows pass `in_row_space`.

    The order needs no subspace comparison.  Write meet(M) for the
    intersection of the raw subspaces in M (the ambient space when M is
    empty).  A = meet(S) for some S, and S is a subset of mask(A), so
    A <= meet(mask(A)) <= meet(S) = A: every flat is the meet of its mask.
    Hence A contains B exactly when mask(A) is a subset of mask(B): if it
    is, B = meet(mask(B)) <= meet(mask(A)) = A; conversely a raw subspace
    containing A contains B, so it lies in mask(B).  Only at the end is
    each flat turned into its rational Subspace, by one `kernel_echelon` of
    its rows.
    """
    if cap is None:
        cap = inst.cap_lattice
    d = inst.ambient_dim
    raw = raw_arrangement(inst)
    gens = [kernel_echelon(s.basis, d) for s in raw]
    flats = {}  # constraint rows -> mask

    def admit(rows, mask):
        if len(flats) >= cap:
            raise SizeBoundExceeded(
                f"intersection lattice exceeded the cap of {cap} elements"
            )
        pivots = pivot_columns(rows)
        for k, gen in enumerate(gens):
            if not mask >> k & 1 and all(in_row_space(rows, pivots, r) for r in gen):
                mask |= 1 << k
        flats[rows] = mask
        return mask

    for rows in ((), *gens):
        admit(rows, 0)
    worklist = list(flats.items())
    while worklist:
        rows, mask = worklist.pop()
        for k, gen in enumerate(gens):
            if mask >> k & 1:
                continue
            meet = integer_echelon(rows + gen)
            if meet not in flats:
                worklist.append((meet, admit(meet, mask | 1 << k)))
    spaces = [
        (Subspace.from_echelon(d, kernel_echelon(rows, d)), mask)
        for rows, mask in flats.items()
    ]
    spaces.sort(key=lambda sm: (-sm[0].dim, sm[0].basis))
    masks = [m for _, m in spaces]
    matrix = [[a & ~b == 0 for b in masks] for a in masks]
    return Poset([s for s, _ in spaces], matrix)


# -- blocks -------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """Building-set element in normal form.

    indices are 1-based and strictly increasing; cosets[r] is the canonical
    representative of the coset attached to indices[r], and cosets[0] is
    always the representative of eK (element id 0).  The sort key is built
    once, here, and takes no part in equality, hashing or repr.
    """

    subgroup: Subgroup
    indices: tuple
    cosets: tuple
    sort_key: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "sort_key", (self.subgroup.sort_key, self.indices, self.cosets)
        )

    def describe(self, inst=None):
        name = inst.subgroup_label(self.subgroup) if inst else self.subgroup.label()
        parts = ",".join(
            f"{i}^{c}" for i, c in zip(self.indices, self.cosets)
        )
        return f"H^{name}({parts})"


def block_subspace(inst, block):
    got = inst._block_subspaces.get(block)
    if got is None:
        got = free_factor_subspace(
            inst,
            inst.fix(block.subgroup),
            tuple(i - 1 for i in block.indices),
            block.cosets,
        )
        expected = inst.fix(block.subgroup).dim + (inst.n - len(block.indices)) * inst.block_width
        if got.dim != expected:
            raise InstanceError(
                f"block {block.describe()} has dim {got.dim}, expected {expected}"
            )
        inst._block_subspaces[block] = got
    return got


def building_blocks(inst):
    """All blocks in normal form, sorted by `Block.sort_key`.

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
    if inst._blocks is not None:
        return inst._blocks
    blocks = []
    for K in closed_subgroups(inst).members:
        reps = tuple(c.rep for c in left_cosets(inst.group, K))
        for k in range(1, inst.n + 1):
            if k == 1 and len(K) == 1:
                continue
            for idxs in combinations(range(1, inst.n + 1), k):
                for tail in product(reps, repeat=k - 1):
                    blocks.append(Block(subgroup=K, indices=idxs, cosets=(0,) + tail))
    blocks.sort(key=attrgetter("sort_key"))
    inst._blocks = tuple(blocks)
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


def check_block_cap(inst, cap):
    """Refuse, before any block is built, an enumeration whose building
    blocks alone pass the cap: every block is a nested set of one block,
    and nested sets and forests are in bijection.  K = G alone gives
    2^n - 1 blocks, so an n past the bit length of the cap is refused
    without computing the count."""
    if inst.n > cap.bit_length() or block_count(inst) > cap:
        raise SizeBoundExceeded(
            f"the building blocks at n={inst.n} exceed the cap of {cap}"
        )


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


def is_block_subspace(inst, W):
    """Reconstruct the normal-form block with subspace W, or None.

    Works without enumerating the building set: the constrained factors are
    those whose full coordinate block is not inside W; the tied structure is
    then a graph over the first constrained factor, whose projection must be
    the fixed space of a closed subgroup.
    """
    if W.basis in inst._recon_cache:
        return inst._recon_cache[W.basis]
    result = _reconstruct_block(inst, W)
    inst._recon_cache[W.basis] = result
    return result


def _reconstruct_block(inst, W):
    b = inst.block_width
    d = inst.ambient_dim
    constrained = []
    for f in range(inst.n):
        units = []
        for c in range(f * b, (f + 1) * b):
            v = [ZERO] * d
            v[c] = ONE
            units.append(v)
        if not all(W.contains_vector(v) for v in units):
            constrained.append(f)
    if not constrained:
        return None
    # W contains every free factor, so W = tied + free: the tied part, W met
    # with the constrained coordinates, is W with the free coordinates zeroed
    kept = {c for f in constrained for c in range(f * b, (f + 1) * b)}
    tied = Subspace.from_spanning(
        d, [[x if c in kept else ZERO for c, x in enumerate(v)] for v in W.basis]
    )
    j1 = constrained[0]
    proj = Subspace.from_spanning(
        b, tuple(v[j1 * b : (j1 + 1) * b] for v in tied.basis)
    )
    if proj.dim != tied.dim:
        return None
    # find, per further factor, a group element carrying the j1 component
    carries = []
    for f in constrained[1:]:
        found = None
        for g in inst.group.elements():
            mat = inst.rep.matrix(g)
            if all(
                tuple(mat.apply(v[j1 * b : (j1 + 1) * b])) == tuple(v[f * b : (f + 1) * b])
                for v in tied.basis
            ):
                found = g
                break
        if found is None:
            return None
        carries.append(found)
    K = pointwise_stabilizer(inst.rep, proj)
    # K = stab(proj) and Fix(K) = proj give phi(K) = stab(Fix(K)) = K, so K
    # is closed
    if inst.fix(K).basis != proj.basis:
        return None
    if len(constrained) == 1 and len(K) == 1:
        return None
    indices = tuple(f + 1 for f in constrained)
    cosets = (0,) + tuple(coset_rep(inst.group, K, g) for g in carries)
    candidate = Block(subgroup=K, indices=indices, cosets=cosets)
    if block_subspace(inst, candidate).basis != W.basis:
        return None
    return candidate


# -- nested sets ----------------------------------------------------------------


@dataclass(frozen=True)
class NestedSet:
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(sorted(self.blocks, key=attrgetter("sort_key")))
        )

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


def enumerate_nested_sets(inst, cap=None):
    """All nonempty nested sets, in depth-first lexicographic block order.

    The nested sets are exactly the cliques of the compatibility graph (the
    nested-set complex is a flag complex), so they are listed by a clique
    search over one bitset of compatible blocks per block.

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

    Raises SizeBoundExceeded before any block is built when the blocks, or
    the nested sets counted by `count_forests` (in bijection with the
    forests), pass the cap (default: the instance's nested-set cap).
    """
    from .forests import count_forests  # forests imports this module

    count_forests(inst, cap)  # `check_block_cap` first, then the exact count
    blocks = building_blocks(inst)
    m = len(blocks)
    compat = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if blocks_compatible(inst, blocks[i], blocks[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    out = []

    def extend(picked, cand):
        while cand:
            low = cand & -cand
            cand ^= low
            idx = low.bit_length() - 1
            chosen = picked + (blocks[idx],)
            out.append(NestedSet(chosen))
            extend(chosen, cand & compat[idx])

    extend((), (1 << m) - 1)
    return out


def nested_sets_poset(nested_sets):
    """Nested sets ordered by inclusion."""
    keys = [frozenset(ns.blocks) for ns in nested_sets]
    matrix = [[a <= b for b in keys] for a in keys]
    return Poset(tuple(nested_sets), matrix)
