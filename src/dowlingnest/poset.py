"""Small finite-poset helper: order matrix, covers, isomorphism by canonical keys."""

from __future__ import annotations


class Poset:
    """Finite poset over opaque elements with a precomputed order matrix."""

    def __init__(self, elements, leq_matrix):
        self.elements = tuple(elements)
        self.leq_matrix = tuple(tuple(row) for row in leq_matrix)
        n = len(self.elements)
        if len(self.leq_matrix) != n or any(len(r) != n for r in self.leq_matrix):
            raise ValueError("order matrix shape mismatch")

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return self.leq_matrix[i][j]

    def covers(self):
        """Cover pairs (i, j) with i < j and nothing strictly between.

        up[i] is the bitmask of the j != i above i.  The j above i with
        something strictly between are those above some member of up[i], so
        the covers of i are up[i] minus the union of its members' up-sets.
        """
        up = [
            sum(1 << j for j, le in enumerate(row) if le and j != i)
            for i, row in enumerate(self.leq_matrix)
        ]
        out = []
        for i, mask in enumerate(up):
            above = 0
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                above |= up[low.bit_length() - 1]
            covers = mask & ~above
            out.extend((i, j) for j in range(covers.bit_length()) if covers >> j & 1)
        return tuple(out)

    def check_partial_order(self):
        n = len(self.elements)
        for i in range(n):
            if not self.leq_matrix[i][i]:
                raise ValueError("order not reflexive")
            for j in range(n):
                if i != j and self.leq_matrix[i][j] and self.leq_matrix[j][i]:
                    raise ValueError("order not antisymmetric")
                if self.leq_matrix[i][j]:
                    for k in range(n):
                        if self.leq_matrix[j][k] and not self.leq_matrix[i][k]:
                            raise ValueError("order not transitive")
        return True


def isomorphic_by_key(p1, p2, key):
    """Check isomorphism by matching elements with identical canonical keys.

    Returns the index bijection p1 -> p2, or None when key multisets differ
    or the matched bijection fails to preserve the order both ways.
    """
    k1 = [key(e) for e in p1.elements]
    k2 = [key(e) for e in p2.elements]
    if sorted(k1) != sorted(k2):
        return None
    lookup = {}
    for idx, k in enumerate(k2):
        if k in lookup:
            return None  # keys must be unique for the matching to be canonical
        lookup[k] = idx
    if len(set(k1)) != len(k1):
        return None
    mapping = [lookup[k] for k in k1]
    n = len(p1.elements)
    for i in range(n):
        for j in range(n):
            if p1.leq_matrix[i][j] != p2.leq_matrix[mapping[i]][mapping[j]]:
                return None
    return tuple(mapping)
