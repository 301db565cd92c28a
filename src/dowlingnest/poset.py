"""Small finite-poset helper: orders as up-set bit masks, and covers."""

from __future__ import annotations


def bits(mask):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class Poset:
    """Finite poset over opaque elements.  up[i] is the bit mask of the j
    with element i <= element j, i included."""

    def __init__(self, elements, up):
        self.elements = tuple(elements)
        self.up = tuple(up)

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return self.up[i] >> j & 1 == 1

    def covers(self):
        """Cover pairs (i, j) with i < j and nothing strictly between.

        strict[i] is up[i] without i.  The j above i with something strictly
        between are those above some member of strict[i], so the covers of i
        are strict[i] minus the union of its members' strict up-sets.
        """
        strict = [mask & ~(1 << i) for i, mask in enumerate(self.up)]
        out = []
        for i, mask in enumerate(strict):
            above = 0
            for j in bits(mask):
                above |= strict[j]
            out.extend((i, j) for j in bits(mask & ~above))
        return tuple(out)
