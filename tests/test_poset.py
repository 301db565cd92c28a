"""The finite-poset helper: covers against their definition."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dowlingnest.poset import Poset

from oracles import check_partial_order


@st.composite
def random_posets(draw):
    """The reflexive-transitive closure of a random relation i -> j, i < j,
    with the elements shuffled so the order does not follow the indices."""
    n = draw(st.integers(0, 9))
    edges = draw(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8))))
    perm = draw(st.permutations(range(n)))
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        if i < j < n:
            leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    leq[i][j] = leq[i][j] or leq[k][j]
    matrix = [[leq[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return Poset(range(n), matrix)


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
    chain = Poset(range(4), [[i <= j for j in range(4)] for i in range(4)])
    assert chain.covers() == ((0, 1), (1, 2), (2, 3))
    antichain = Poset(range(3), [[i == j for j in range(3)] for i in range(3)])
    assert antichain.covers() == ()
