"""Finite groups given by a Cayley table or by abelian invariant factors.

Elements are 0-based integer ids, id 0 is always the identity.  For abelian
groups described by invariant factors (d1, ..., dm), element ids encode
mixed-radix tuples with the last factor varying fastest, so (a1, ..., am)
gets id ((a1 * d2 + a2) * d3 + ...).
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .errors import InstanceError, OrderBoundExceeded
from .frozen import Frozen, _set

DEFAULT_ORDER_BOUND = 64


class FiniteGroup:
    """Immutable finite group backed by a multiplication table."""

    __slots__ = ("order", "identity", "abelian_spec", "_mul", "_inv", "_abelian")

    def __init__(self, table, abelian_spec=None):
        self.order = len(table)
        self.identity = 0
        self._mul = tuple(tuple(row) for row in table)
        self.abelian_spec = tuple(abelian_spec) if abelian_spec is not None else None
        self._validate()
        self._inv = tuple(self._find_inverse(a) for a in range(self.order))
        self._abelian = all(
            self._mul[a][b] == self._mul[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    def _validate(self):
        n = self.order
        if n == 0:
            raise InstanceError("group must have at least one element")
        for i, row in enumerate(self._mul):
            if len(row) != n:
                raise InstanceError(f"Cayley table row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not (type(x) is int and 0 <= x < n):
                    raise InstanceError(f"Cayley table entry {x!r} out of range in row {i}")
        for a in range(n):
            if self._mul[0][a] != a or self._mul[a][0] != a:
                raise InstanceError("element id 0 is not a two-sided identity")
        # exhaustive associativity check; supported orders are small
        if n <= DEFAULT_ORDER_BOUND:
            mul = self._mul
            for a in range(n):
                for b in range(n):
                    ab = mul[a][b]
                    row_a = mul[a]
                    for c in range(n):
                        if mul[ab][c] != row_a[mul[b][c]]:
                            raise InstanceError(
                                f"Cayley table not associative at ({a},{b},{c})"
                            )
        if self.abelian_spec is not None:
            self._validate_abelian_spec()

    def _validate_abelian_spec(self):
        spec = self.abelian_spec
        if any(d <= 0 for d in spec):
            raise InstanceError("invariant factors must be positive")
        size = 1
        for d in spec:
            size *= d
        if size != self.order:
            raise InstanceError("invariant factors do not match table size")
        if self._mul != _abelian_table(spec):
            raise InstanceError("Cayley table disagrees with componentwise addition")

    def _find_inverse(self, a):
        for b in range(self.order):
            if self._mul[a][b] == 0 and self._mul[b][a] == 0:
                return b
        raise InstanceError(f"element {a} has no two-sided inverse")

    # -- basic operations --------------------------------------------------

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, h):
        """g h g^-1."""
        return self._mul[self._mul[g][h]][self._inv[g]]

    def elements(self):
        return range(self.order)

    @property
    def is_abelian(self):
        return self._abelian

    def element_order(self, a):
        x = a
        k = 1
        while x != 0:
            x = self._mul[x][a]
            k += 1
        return k

    def exponent(self):
        return lcm(*(self.element_order(a) for a in range(self.order)))

    # -- abelian coordinates ------------------------------------------------

    def id_to_tuple(self, a):
        if self.abelian_spec is None:
            raise InstanceError("group has no abelian invariant-factor structure")
        coords = []
        for d in reversed(self.abelian_spec):
            coords.append(a % d)
            a //= d
        return tuple(reversed(coords))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_cayley(cls, table):
        return cls(table)

    @classmethod
    def from_abelian(cls, factors):
        factors = tuple(int(d) for d in factors)
        if any(d <= 0 for d in factors):
            raise InstanceError("invariant factors must be positive")
        # the table is the spec's addition by construction, so the spec is
        # attached after validation instead of compared with a second table
        G = cls(_abelian_table(factors))
        G.abelian_spec = factors
        return G

    @classmethod
    def cyclic(cls, r):
        return cls.from_abelian((r,))

    def __repr__(self):
        if self.abelian_spec is not None:
            return f"FiniteGroup(abelian={self.abelian_spec})"
        return f"FiniteGroup(order={self.order})"


def _abelian_table(spec):
    """The table of componentwise addition for the invariant factors
    `spec`, with each element's coordinate tuple made once: `product`
    lists the tuples with the last factor varying fastest, in id order."""
    tuples = list(product(*map(range, spec)))
    ids = {t: a for a, t in enumerate(tuples)}
    return tuple(
        tuple(ids[tuple((x + y) % d for x, y, d in zip(ta, tb, spec))] for tb in tuples)
        for ta in tuples
    )


class Subgroup(Frozen):
    """Canonical subgroup: sorted tuple of element ids, always containing 0."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        _set(self, "elements", tuple(sorted(set(elements))))

    def __contains__(self, g):
        return g in self.elements

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def sort_key(self):
        return (len(self.elements), self.elements)

    def label(self):
        return "{" + ",".join(str(g) for g in self.elements) + "}"

    def is_subset(self, other):
        return set(self.elements) <= set(other.elements)


def subgroup_closure(G, gens):
    """Smallest subgroup containing the given generators.

    It is the set of products g_1 ... g_k of generators (k >= 0), reached
    from e by multiplying on the right: that set is closed under products,
    and in a finite group a nonempty set closed under products is a
    subgroup, as g^-1 = g^(ord(g) - 1)."""
    elems = {G.identity}
    frontier = [G.identity]
    gens = set(gens)
    while frontier:
        row = G._mul[frontier.pop()]
        for g in gens:
            y = row[g]
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return Subgroup(tuple(elems))


def generating_set(G):
    """A nonempty generating set of G, built greedily: each element not yet
    in the subgroup generated so far is added (the trivial group gives {e})."""
    gens = []
    span = (G.identity,)
    for a in range(G.order):
        if a not in span:
            gens.append(a)
            span = subgroup_closure(G, gens).elements
    return gens or [G.identity]


def check_order_bound(order):
    """Raise OrderBoundExceeded for a group too large to enumerate."""
    if order > DEFAULT_ORDER_BOUND:
        raise OrderBoundExceeded(
            f"group order {order} exceeds the bound {DEFAULT_ORDER_BOUND}"
        )


def enumerate_subgroups(G):
    """All subgroups of G, sorted by (size, elements).

    Breadth-first closure over generator extensions: every subgroup is
    reachable from a smaller one by adjoining a single generator, so the
    search is exhaustive.  Each subgroup enters the frontier once, with
    the generators it was first reached by, and <H, g> is closed from
    those generators and g.  As <H, g> = <H, hg> for h in H, one g per
    coset Hg is enough.
    """
    check_order_bound(G.order)
    trivial = Subgroup((G.identity,))
    seen = {trivial.elements: trivial}
    frontier = [(trivial, ())]
    while frontier:
        nxt = []
        for H, gens in frontier:
            done = set(H.elements)
            for g in range(G.order):
                if g in done:
                    continue
                done.update(G.mul(h, g) for h in H.elements)
                K = subgroup_closure(G, gens + (g,))
                if K.elements not in seen:
                    seen[K.elements] = K
                    nxt.append((K, gens + (g,)))
        frontier = nxt
    return sorted(seen.values(), key=lambda H: H.sort_key)


def conjugate_subgroup(G, H, g):
    """The subgroup g H g^-1."""
    return Subgroup(tuple(G.conj(g, h) for h in H))


class Coset(Frozen):
    """Left coset gK with its canonical (minimal id) representative."""

    __slots__ = ("rep", "members")

    def __init__(self, rep, members):
        _set(self, "rep", rep)
        _set(self, "members", members)


def left_cosets(G, K):
    """Partition of G into left cosets of K, sorted by representative."""
    remaining = set(G.elements())
    cosets = []
    while remaining:
        g = min(remaining)
        members = tuple(sorted(G.mul(g, k) for k in K))
        cosets.append(Coset(rep=min(members), members=members))
        remaining -= set(members)
    return sorted(cosets, key=lambda c: c.rep)


def coset_rep(G, K, g):
    """Canonical representative of the coset gK."""
    row = G._mul[g]
    return min([row[k] for k in K.elements])


class ConjClass(Frozen):
    """A conjugacy class of subgroups: its first member and all members."""

    __slots__ = ("representative", "members")

    def __init__(self, representative, members):
        _set(self, "representative", representative)
        _set(self, "members", members)


class ConjClassPoset:
    """Conjugacy classes of subgroups with [P] <= [Q] iff some conjugate of P lies in Q."""

    def __init__(self, G, subgroups):
        self.group = G
        classes = []
        assigned = {}
        for H in subgroups:
            if H.elements in assigned:
                continue
            orbit = sorted(
                {conjugate_subgroup(G, H, g).elements for g in G.elements()}
            )
            members = tuple(Subgroup(e) for e in orbit)
            idx = len(classes)
            classes.append(ConjClass(representative=members[0], members=members))
            for M in members:
                assigned[M.elements] = idx
        self.classes = tuple(classes)
        self._index_of = assigned
        n = len(classes)
        leq = [[False] * n for _ in range(n)]
        for i, ci in enumerate(classes):
            qi = set(classes[i].representative.elements)
            for j, cj in enumerate(classes):
                qj = set(cj.representative.elements)
                leq[i][j] = any(set(m.elements) <= qj for m in ci.members)
        self._leq = tuple(tuple(row) for row in leq)

    def class_index(self, H):
        return self._index_of[H.elements]

    def leq(self, P, Q):
        """[P] <= [Q] for subgroups P, Q."""
        return self._leq[self.class_index(P)][self.class_index(Q)]

    def leq_index(self, i, j):
        return self._leq[i][j]


def subgroup_conj_classes(G, subgroups=None):
    if subgroups is None:
        subgroups = enumerate_subgroups(G)
    return ConjClassPoset(G, subgroups)
