"""The finite-poset helper: covers against their definition."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dowlingnest.poset import Poset

from oracles import check_partial_order


@st.composite
def random_posets(draw):
    """The reflexive-transitive closure of a random relation i -> j, i < j,
    as up-sets, with the elements shuffled so the order does not follow the
    indices."""
    n = draw(st.integers(0, 9))
    edges = draw(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8))))
    perm = draw(st.permutations(range(n)))
    up = [1 << i for i in range(n)]
    for i, j in edges:
        if i < j < n:
            up[i] |= 1 << j
    # every j above i is larger, so up[j] is closed when i reads it
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if up[i] >> j & 1:
                up[i] |= up[j]
    # element k of the poset is perm[k]
    shuffled = [
        sum(1 << k for k in range(n) if up[perm[i]] >> perm[k] & 1) for i in range(n)
    ]
    return Poset(range(n), shuffled)


def brute_force_covers(poset):
    n = len(poset)
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and poset.leq(i, j)
        and not any(
            k != i and k != j and poset.leq(i, k) and poset.leq(k, j) for k in range(n)
        )
    )


@settings(max_examples=200, deadline=None)
@given(random_posets())
def test_covers_match_the_definition(poset):
    assert check_partial_order(poset)
    assert poset.covers() == brute_force_covers(poset)


def test_covers_of_a_chain_and_an_antichain():
    chain = Poset(range(4), [sum(1 << j for j in range(i, 4)) for i in range(4)])
    assert chain.covers() == ((0, 1), (1, 2), (2, 3))
    antichain = Poset(range(3), [1 << i for i in range(3)])
    assert antichain.covers() == ()
