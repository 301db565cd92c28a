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
        """Cover pairs (i, j) with i < j and nothing strictly between."""
        n = len(self.elements)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq_matrix[i][j]:
                    continue
                if any(
                    k != i and k != j and self.leq_matrix[i][k] and self.leq_matrix[k][j]
                    for k in range(n)
                ):
                    continue
                out.append((i, j))
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
