"""Small finite-poset helper: order matrix and covers."""

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
