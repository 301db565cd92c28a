"""Labelled forests and their bijection with nested sets.

A forest on leaves {1..n} has internal vertices labelled by closed
subgroups and edges labelled by canonical coset representatives of the
parent vertex's subgroup.  The admissible labelings:

  (1) an internal vertex below a vertex labelled Q carries a label P with
      [P] <= [Q] in the conjugacy-class order;
  (2) a unary vertex over an internal vertex strictly decreases the class
      going down, and a unary vertex over a leaf is not labelled {e};
  (3) the full-group label appears in at most one tree, and such a vertex
      has at most one direct full-group child;
  (4) an edge out of a vertex labelled Q carries a coset aQ, and when the
      child is internal with label P the representative satisfies
      a^-1 P a <= Q (a coset-invariant condition);
  (5) at every internal vertex, the edge toward the subtree holding the
      smallest descendant leaf carries the trivial coset.

Isolated leaves (single-vertex trees) are the fallen leaves; a forest must
contain at least one internal vertex.

Each internal vertex v maps to the block whose label is the label of v,
whose indices are the leaves below v, and whose coset at leaf i is the
product of the edge representatives along the path from v down to i,
deeper edges multiplying on the left.  This map is a bijection onto the
nonempty nested sets; the inverse hangs every leaf below the smallest
block containing it and solves the edge cosets from coset mismatches.
"""

from __future__ import annotations

from itertools import chain
from math import comb
from operator import add, attrgetter, mul

from .arrangement import Block, NestedSet, closed_subgroups, disjoint_covers
from .errors import MalformedForest, NotRealizable, SizeBoundExceeded
from .frozen import Frozen, _set
from .groups import Subgroup, coset_rep, left_cosets

_NO_LEAF = 10**9  # sort sentinel for unlabelled leaves
_END = -1  # closes a vertex's list of children in a sort key

# A sort key is a flat tuple of ints: a leaf is (0, label), a vertex is 1,
# the size and elements of its subgroup, each child's coset representative
# followed by the child's key, and _END.  The encoding is prefix-free and _END
# sorts below every representative, so two keys compare exactly as the
# nested tuples (1, subgroup.sort_key, ((rep, child key), ...)) would, but
# in one flat pass instead of a recursion.

_smallest = attrgetter("smallest")


def _child_smallest(edge):
    return edge[1].smallest


class Leaf(Frozen):
    """Leaf vertex; label None only occurs in decomposition subforests."""

    __slots__ = ("label",)

    def __init__(self, label=None):
        _set(self, "label", label)

    @property
    def smallest(self):
        return self.label if self.label is not None else _NO_LEAF

    @property
    def sort_key(self):
        return (0, self.smallest)


class Vertex(Frozen):
    """Internal vertex: a subgroup label and (coset representative, child) pairs.

    The smallest leaf below the vertex and its sort key are computed once,
    in `__post_init__`, from the children's stored values, so no subtree is
    walked again to order trees.  Neither takes part in equality, hashing
    or repr.  Every build runs `__post_init__` once, looked up on the
    class, so the perfbench tracer counts vertices by wrapping it.
    """

    __slots__ = ("subgroup", "children", "smallest", "sort_key")
    _fields = ("subgroup", "children")

    def __init__(self, subgroup, children):
        _set(self, "subgroup", subgroup)
        _set(self, "children", children)
        self.__post_init__()

    def __post_init__(self):
        children = self.children
        if len(children) > 1:
            children = tuple(sorted(children, key=_child_smallest))
        else:
            children = tuple(children)
        _set(self, "children", children)
        # an empty or unlabelled vertex is malformed; check_structure reports it
        _set(self, "smallest", children[0][1].smallest if children else _NO_LEAF)
        elements = getattr(self.subgroup, "elements", ())
        key = [1, len(elements), *elements]
        for rep, child in children:
            key.append(rep)
            key += child.sort_key
        key.append(_END)
        _set(self, "sort_key", tuple(key))


def min_leaf(node):
    return node.smallest


def internal_vertices(node):
    if isinstance(node, Leaf):
        return
    yield node
    for _, child in node.children:
        yield from internal_vertices(child)


class LabelledForest(Frozen):
    """A forest: its trees sorted by smallest leaf."""

    __slots__ = ("trees",)

    def __init__(self, trees):
        if len(trees) > 1:
            trees = tuple(sorted(trees, key=_smallest))
        else:
            trees = tuple(trees)
        _set(self, "trees", trees)

    @property
    def fallen_leaves(self):
        return tuple(
            t.label for t in self.trees if isinstance(t, Leaf) and t.label is not None
        )

    def internal_count(self):
        return sum(1 for t in self.trees for _ in internal_vertices(t))

    def components(self):
        return len(self.trees)


def check_structure(inst, forest):
    """Raise MalformedForest unless leaves biject onto {1..n} and nodes are sane."""
    seen = []

    def walk(node):
        if isinstance(node, Leaf):
            if not isinstance(node.label, int):
                raise MalformedForest("forest leaf without an integer label")
            seen.append(node.label)
            return
        if not isinstance(node, Vertex):
            raise MalformedForest(f"unexpected node {node!r}")
        if not isinstance(node.subgroup, Subgroup):
            raise MalformedForest("internal vertex without a subgroup label")
        if not node.children:
            raise MalformedForest("internal vertex with no children")
        for rep, child in node.children:
            if not isinstance(rep, int):
                raise MalformedForest("edge without an integer coset representative")
            walk(child)

    for t in forest.trees:
        walk(t)
    if sorted(seen) != list(range(1, inst.n + 1)):
        raise MalformedForest(
            f"leaf labels {sorted(seen)} are not a bijection onto 1..{inst.n}"
        )


def forest_violation(inst, forest):
    """First violated rule as a string, or None when the forest is valid.

    A vertex label that is not a closed subgroup is reported before any rule
    is checked.
    """
    check_structure(inst, forest)
    cs = closed_subgroups(inst)
    for tree in forest.trees:
        for v in internal_vertices(tree):
            if v.subgroup not in cs:
                return f"vertex label {v.subgroup.label()} is not a closed subgroup"
    G = inst.group
    conj = inst.conj_classes()
    whole = Subgroup(tuple(range(G.order)))
    trivial = Subgroup((G.identity,))

    def class_lt(P, Q):
        return conj.leq(P, Q) and conj.class_index(P) != conj.class_index(Q)

    trees_with_g = 0
    for tree in forest.trees:
        if any(v.subgroup.elements == whole.elements for v in internal_vertices(tree)):
            trees_with_g += 1
    if trees_with_g > 1:
        return "rule (3): the full-group label appears in more than one tree"

    for tree in forest.trees:
        for v in internal_vertices(tree):
            Q = v.subgroup
            g_children = 0
            for rep, child in v.children:
                if rep != coset_rep(G, Q, rep):
                    return (
                        "rule (4): edge representative is not canonical for a coset "
                        f"of {Q.label()}"
                    )
                if isinstance(child, Vertex):
                    P = child.subgroup
                    if not conj.leq(P, Q):
                        return "rule (1): descendant class not below its ancestor"
                    a_inv = G.inv(rep)
                    if any(G.conj(a_inv, p) not in Q.elements for p in P):
                        return (
                            "rule (4): representative does not conjugate the child "
                            "label into the parent label"
                        )
                    if P.elements == whole.elements:
                        g_children += 1
            if Q.elements == whole.elements and g_children > 1:
                return "rule (3): a full-group vertex has two full-group children"
            if len(v.children) == 1:
                rep, child = v.children[0]
                if isinstance(child, Leaf):
                    if Q.elements == trivial.elements:
                        return "rule (2): a unary vertex over a leaf is labelled {e}"
                else:
                    if not class_lt(child.subgroup, Q):
                        return "rule (2): unary vertex without a strict class drop"
            # rule (5): the edge toward the smallest descendant leaf is trivial
            smallest = v.smallest
            for rep, child in v.children:
                if child.smallest == smallest and rep != 0:
                    return "rule (5): smallest-leaf edge does not carry the trivial coset"
    if forest.internal_count() == 0:
        return "forest has no internal vertex"
    return None


def validate_forest(inst, forest):
    return forest_violation(inst, forest) is None


# -- forest -> nested set ---------------------------------------------------------


def forest_to_nested(inst, forest):
    """One block per internal vertex, cosets from the path-product rule."""
    G = inst.group
    blocks = []

    def leaf_products(node):
        """leaf -> product of edge representatives from this vertex down."""
        out = {}
        for rep, child in node.children:
            if isinstance(child, Leaf):
                out[child.label] = rep
            else:
                for leaf, p in leaf_products(child).items():
                    out[leaf] = G.mul(p, rep)  # deeper edges multiply on the left
        return out

    for tree in forest.trees:
        for v in internal_vertices(tree):
            prods = leaf_products(v)
            indices = tuple(sorted(prods))
            K = v.subgroup
            cosets = tuple(coset_rep(G, K, prods[i]) for i in indices)
            if cosets[0] != 0:
                raise NotRealizable(
                    "smallest-leaf coset is not trivial; the forest breaks rule (5)"
                )
            blocks.append(Block(subgroup=K, indices=indices, cosets=cosets))
    return NestedSet(tuple(blocks))


# -- nested set -> forest ---------------------------------------------------------


def nested_to_forest(inst, nested):
    """The unique forest mapping onto the given nested set.

    Blocks of a nested set that share an index are comparable, and if b < c
    strictly then c has more indices, or the same indices and a larger
    label (equal indices and equal label sizes would make the labels
    conjugate, so of equal fixed dimension, so the subspaces and the normal
    forms equal).  With the blocks sorted by (number of indices, label
    size), the parent of a block is the first later block holding its first
    index, and each leaf hangs under the first block holding it.  Edge
    representatives are solved from the coset mismatch at the child's first
    index.  The build trusts the input, so a set that is not nested is
    caught afterwards: by the labelling rules, or by the round trip back
    through `forest_to_nested`.
    """
    G = inst.group
    blocks = sorted(nested.blocks, key=lambda b: (len(b.indices), len(b.subgroup)))
    coset_of = [dict(zip(b.indices, b.cosets)) for b in blocks]
    children = [[] for _ in blocks]
    placed = set()
    trees = []
    for i, b in enumerate(blocks):
        for leaf in b.indices:
            if leaf not in placed:
                placed.add(leaf)
                children[i].append((coset_of[i][leaf], Leaf(leaf)))
        if not children[i]:
            raise NotRealizable("block vertex ended up with no children")
        node = Vertex(subgroup=b.subgroup, children=tuple(children[i]))
        p = b.indices[0]
        parent = next((j for j in range(i + 1, len(blocks)) if p in coset_of[j]), None)
        if parent is None:
            trees.append(node)
        else:
            a = G.mul(G.inv(b.cosets[0]), coset_of[parent][p])
            children[parent].append((coset_rep(G, blocks[parent].subgroup, a), node))
    trees.extend(Leaf(leaf) for leaf in range(1, inst.n + 1) if leaf not in placed)
    forest = LabelledForest(trees=tuple(trees))
    problem = forest_violation(inst, forest)
    if problem is not None:
        raise NotRealizable(f"reconstructed forest is invalid: {problem}")
    if forest_to_nested(inst, forest) != nested:
        raise NotRealizable("the reconstructed forest maps to another set of blocks")
    return forest


# -- counting by part size ------------------------------------------------------------


def _coset_weights(G, members):
    """The labels P <= K of each K in `members`, and its row a_K(L) over the
    L != G (see count_forests)."""
    sets = [set(K.elements) for K in members]
    label = {frozenset(L): l for l, L in enumerate(sets)}
    conjugates = [  # the labels of the g^-1 L g
        [label[frozenset([G.conj(G.inv(g), p) for p in L])] for g in G.elements()]
        for L in sets[:-1]
    ]
    below = [{p for p, P in enumerate(sets) if P <= K} for K in sets]
    return below, [
        [sum(map(b.__contains__, row)) // len(K) for row in conjugates]
        for b, K in zip(below, sets)
    ]


def _conv(c, a, b):
    """sum of c[i] a[i] b[i] over the shortest of the three."""
    return sum(map(mul, map(mul, c, a), b))


def count_forests(inst):
    """The number of valid forests, len(enumerate_forests(inst)),
    found without building a tree, for any finite G.

    The edge toward the smallest leaf of a part is pinned and every other
    leaf is treated alike, so the number of trees on a part with root label
    K depends only on the part's size.  With every series an exponential
    generating function in x, T_K counts the trees whose root has label K,
    G is the full group and
      A_K = x + sum of T_L over L <= K, L != G  (the piece holding the
            smallest leaf, on the trivial edge),
      B_K = [G:K] x + sum of a_K(L) T_L over L != G  (any other piece;
            a_K(L) counts the cosets aK with a^-1 L a <= K).
    The vertices with at least two children under K number
    int A_K' e^{B_K} - A_K: the piece holding the smallest leaf, then a set
    of other pieces, at least one.  Under G one child may have label G too
    (rule (3)), on the first piece or on another, which gives
    int [A' e^B (1 + T_G) + T_G' e^B] - A - T_G.  Add x for a vertex over
    one leaf when K != {e}, and T_P for each P < K, P != K, for a unary
    vertex over a smaller label: members are sorted by size, so each T_P is
    final before T_K takes it.  The forests are a set of trees, at most
    one with root G, less the forest of fallen leaves alone:
    e^{B_G} (1 + T_G) - e^x, as every a_G(L) is 1.

    As (ak)^-1 L (ak) = k^-1 (a^-1 L a) k lies in K exactly when a^-1 L a
    does, for k in K, a_K(L) = #{g in G : g^-1 L g <= K} / |K|.  That is
    read from one table, the labels of the g^-1 L g: `_check_closed_set`
    has shown the closed set stable under conjugation.

    Every piece of a vertex with two children is smaller than the part, so
    the series are found one size at a time, on integers n! [x^n], with
    each e^B (and A' e^B under G) extended by one degree per size from
    E' = B'E.  No table of `enumerate_forests` is shared, so a wrong
    labelling rule here shows up as a count that differs from the
    nested-set enumeration.

    Raises SizeBoundExceeded when the count passes the instance's
    nested-set cap.  K = G alone gives 2^n - 1 blocks, each a nested set of
    one block, so an n past the bit length of the cap is refused without
    the count.  Nested sets and forests are in bijection, so the count
    bounds both enumerations; `enumerate_forests` and
    `enumerate_nested_sets` call this before they build a tree or a block.
    """
    n, cap = inst.n, inst.cap_nested
    if n > cap.bit_length():
        raise SizeBoundExceeded(
            f"the building blocks at n={n} exceed the cap of {cap}"
        )
    G = inst.group
    members = closed_subgroups(inst).members
    full = len(members) - 1  # G is closed and sorts last
    below, weights = _coset_weights(G, members)
    smaller = [b - {k} for k, b in enumerate(below)]
    first = [b - {full} for b in below]  # the L <= K, L != G
    binomials = [[comb(m, i) for i in range(m + 1)] for m in range(n + 1)]
    # n! [x^n] of T_K, A_K, B_K and e^{B_K} per label, and of A_G' e^{B_G}
    T, A, B, E = ([[x] for _ in members] for x in (0, 0, 0, 1))
    D = []
    for m in range(1, n + 1):
        c, leaf = binomials[m - 1], m == 1
        for k, K in enumerate(members):
            head, extra = A[k], 0
            if k == full:  # a G child on the first piece, or on another
                head = list(map(add, A[k], T[k]))
                extra = _conv(c, D, reversed(T[k]))
            count = _conv(c, head[1:], reversed(E[k])) + extra
            T[k].append(count + (leaf and len(K) > 1) + sum(T[p][m] for p in smaller[k]))
        column = [t[m] for t in T[:full]]
        for k, K in enumerate(members):
            A[k].append(leaf + sum(T[l][m] for l in first[k]))
            B[k].append(G.order // len(K) * leaf + sum(map(mul, weights[k], column)))
            E[k].append(_conv(c, B[k][1:], reversed(E[k])))
        D.append(_conv(c, A[full][1:], reversed(E[full][:m])))
    e = E[full]
    total = e[n] - 1 + _conv(binomials[n], e[:n], reversed(T[full]))
    if total > cap:
        raise SizeBoundExceeded(
            f"{total} nested sets at n={n} exceed the cap of {cap}; "
            "lower --n or raise --cap-nested"
        )
    return total


# -- direct enumeration ------------------------------------------------------------


def _node_sort_key(node):
    return node.sort_key


def enumerate_forests(inst):
    """Generate every valid forest directly from the labeling rules, each
    once and already in canonical order: by the sort keys of the trees,
    taken in smallest-leaf order.  Leaf sets are bit masks, and both the
    children of a vertex and the trees of a forest are disjoint covers of
    one (`disjoint_covers`), at most one part marked G.

    Trees.  One table, edge_reps[K, L], holds the coset representatives a
    of K with a^-1 L a <= K (every representative when the child is a
    leaf).  With the trivial edge toward the smallest leaf, it decides
    rules (1), (4) and (5), and keeps G-labelled children under G, once per
    pair of labels.  The (edge, child) offers are built once per label,
    piece of leaves and whether the piece holds the smallest leaf.  The
    children of a vertex over at least two pieces are a cover of its leaves
    by offers, the piece holding the smallest leaf not the whole part; a
    G-labelled child is a marked part, so a G vertex takes at most one:
    rule (3) within a tree.

    Forests.  The tree holding a leaf m is Leaf(m) or a tree on some part
    with smallest leaf m; those candidates are sorted once per m, with
    Leaf(m) first, since a leaf's key sorts below every vertex's.  A forest
    is a cover of {1..n} by candidates, a tree marked when it holds the
    full group (a G label can sit only under G, so a tree holds G exactly
    when its root does): rule (3) across trees.  The covers come sorted: a
    forest's key starts with the key of the tree holding its smallest leaf,
    distinct trees have distinct keys, and the covers of each rest are
    sorted by induction.  By the same induction the first cover is the
    forest of fallen leaves alone, the one forest on {1..n} with no
    internal vertex, so dropping it leaves exactly the valid forests.

    The instance's nested-set cap counts valid forests, and `count_forests`
    refuses an instance past it before a vertex is built.  Nothing built
    outgrows that count: each tree, with the other leaves fallen, is a
    distinct valid forest, and so is each cover of a rest the forest walk
    keeps but the one of fallen leaves alone.  A run within the cap builds
    no vertex it does not return.
    """
    count_forests(inst)
    G = inst.group
    members = closed_subgroups(inst).members
    trivial = Subgroup((G.identity,))
    # labels are indices into members; index LEAF stands for a leaf child
    LEAF = len(members)
    full = LEAF - 1  # G is closed and sorts last
    edge_reps, below = [], []
    for K in members:
        reps = tuple(c.rep for c in left_cosets(G, K))
        inside = set(K.elements)
        edge_reps.append(
            [
                tuple(a for a in reps if all(G.conj(G.inv(a), p) in inside for p in L))
                for L in members
            ]
            + [reps]
        )
        below.append([inside.issuperset(L.elements) for L in members] + [True])
    leaves = {1 << i: Leaf(i) for i in range(1, inst.n + 1)}  # by leaf bit
    tree_memo = {}
    offer_memo = {}

    def offers(k, piece, first):
        """(piece, G-labelled, (edge, child)) for every child on the bit set
        `piece` under label k.  The offers need no rule (1) or rule (3)
        check of their own:
        - a nonempty edge_reps[K, L] puts a conjugate of L inside K, so
          [L] <= [K];
        - L <= K on the smallest-leaf piece gives [L] <= [K];
        - G is conjugate into no K != G, so G-labelled children are
          offered only under K = G."""
        key = (k, piece, first)
        if key in offer_memo:
            return offer_memo[key]
        nodes = enumerate(trees_on(piece))
        if piece in leaves:
            nodes = [(LEAF, (leaves[piece],)), *nodes]
        out = []
        for l, trees in nodes:
            reps = ((0,) if below[k][l] else ()) if first else edge_reps[k][l]
            out.extend((piece, l == full, (a, tree)) for tree in trees for a in reps)
        offer_memo[key] = out
        return out

    def children(k, part):
        """The children of every vertex labelled k over at least two pieces
        of the bit set `part`."""
        low = part & -part

        def pieces(i, S):
            bit = 1 << i
            return chain.from_iterable(
                offers(k, piece, bit == low)
                for piece in range(bit, S + 1, 2 * bit)  # lowest bit i
                if piece & S == piece and piece != part
            )

        return disjoint_covers(part, True, pieces)

    def trees_on(part):
        """Every tree on the leaves of the bit set `part`, grouped by root
        label."""
        if part in tree_memo:
            return tree_memo[part]
        by_label = [[] for _ in members]
        if part in leaves:
            leaf = ((0, leaves[part]),)
            for k, K in enumerate(members):
                if K != trivial:
                    by_label[k].append(Vertex(subgroup=K, children=leaf))
        else:
            for k, K in enumerate(members):
                by_label[k].extend(
                    Vertex(subgroup=K, children=c) for c in children(k, part)
                )
        # unary chains: strictly larger label over an existing root
        for k, K in enumerate(members):
            for p in range(k):  # members are sorted by size
                if below[k][p]:
                    by_label[k].extend(
                        Vertex(subgroup=K, children=((0, sub),)) for sub in by_label[p]
                    )
        tree_memo[part] = by_label
        return by_label

    every = (1 << (inst.n + 1)) - 2
    by_smallest = {}

    def candidates(m, S):
        """(leaf mask, holds G, tree) for every tree whose smallest leaf is
        m, in sort-key order."""
        if m not in by_smallest:
            bit = 1 << m
            entries = [(bit, False, leaves[bit])]
            for part in range(bit, every + 1, 2 * bit):  # lowest bit m
                for k, trees in enumerate(trees_on(part)):
                    entries.extend((part, k == full, tree) for tree in trees)
            entries.sort(key=lambda entry: _node_sort_key(entry[2]))
            by_smallest[m] = entries
        return by_smallest[m]

    forests = disjoint_covers(every, True, candidates)
    del forests[0]  # the fallen leaves alone
    for j, trees in enumerate(forests):  # each cover is freed once replaced
        forests[j] = LabelledForest(trees)
    return forests


# -- decomposition into subforests ---------------------------------------------------


class ForestDecomposition(Frozen):
    """Per-label subforests plus the counting statistics they induce.

    components counts the trees of the original forest (fallen leaves
    included), fallen counts isolated leaves, and leaf_counts[H] counts the
    original leaves attached directly to a vertex labelled H.  leaf_counts
    holds pairs (Subgroup, count), subforests pairs (Subgroup, tuple of
    subforest root vertices).
    """

    __slots__ = ("components", "fallen", "leaf_counts", "subforests")

    def __init__(self, components, fallen, leaf_counts, subforests):
        _set(self, "components", components)
        _set(self, "fallen", fallen)
        _set(self, "leaf_counts", leaf_counts)
        _set(self, "subforests", subforests)

    def count_for(self, H):
        for K, c in self.leaf_counts:
            if K.elements == H.elements:
                return c
        return 0


def decompose_forest(inst, forest):
    counts = {}
    roots = {}

    def clip(node, label):
        """Copy of the node keeping only the cluster with the given label."""
        children = []
        for rep, child in node.children:
            if isinstance(child, Vertex) and child.subgroup.elements == label.elements:
                children.append((rep, clip(child, label)))
            else:
                children.append((rep, Leaf(None)))
        return Vertex(subgroup=node.subgroup, children=tuple(children))

    for tree in forest.trees:
        for v in internal_vertices(tree):
            K = v.subgroup
            for rep, child in v.children:
                if isinstance(child, Leaf):
                    counts[K] = counts.get(K, 0) + 1

        def walk(node, parent_label):
            if isinstance(node, Leaf):
                return
            if parent_label is None or parent_label.elements != node.subgroup.elements:
                roots.setdefault(node.subgroup, []).append(
                    clip(node, node.subgroup)
                )
            for rep, child in node.children:
                walk(child, node.subgroup)

        walk(tree, None)

    ordered = sorted(set(counts) | set(roots), key=lambda s: s.sort_key)
    return ForestDecomposition(
        components=forest.components(),
        fallen=len(forest.fallen_leaves),
        leaf_counts=tuple((K, counts.get(K, 0)) for K in ordered),
        subforests=tuple((K, tuple(roots.get(K, ()))) for K in ordered),
    )


# -- serialization ---------------------------------------------------------------------


def node_to_json(node):
    if isinstance(node, Leaf):
        return {"leaf": node.label}
    return {
        "subgroup": list(node.subgroup.elements),
        "children": [
            {"coset": rep, "child": node_to_json(child)}
            for rep, child in node.children
        ],
    }


def node_from_json(data):
    if "leaf" in data:
        label = data["leaf"]
        if not isinstance(label, int):
            raise MalformedForest("leaf label must be an integer")
        return Leaf(label)
    if "subgroup" not in data or "children" not in data:
        raise MalformedForest("internal node needs 'subgroup' and 'children'")
    children = tuple(
        (edge["coset"], node_from_json(edge["child"])) for edge in data["children"]
    )
    return Vertex(subgroup=Subgroup(tuple(data["subgroup"])), children=children)


def forest_to_json(forest):
    return {
        "trees": [node_to_json(t) for t in forest.trees],
        "fallen_leaves": list(forest.fallen_leaves),
    }


def forest_from_json(data):
    if "trees" not in data:
        raise MalformedForest("forest JSON needs a 'trees' list")
    return LabelledForest(trees=tuple(node_from_json(t) for t in data["trees"]))
