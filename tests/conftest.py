"""Shared instance fixtures.

Instances are built once per session; ProblemInstance caches derived data
internally, so reusing them keeps the suite fast without hidden coupling.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from dowlingnest import FiniteGroup, InstanceError, ProblemInstance, Representation


def make_abelian_instance(factors, characters, n, names=None):
    G = FiniteGroup.from_abelian(factors)
    rep = Representation.from_characters(G, characters)
    return ProblemInstance(n, G, rep, names=names)


def capped(inst, **caps):
    """The same instance with the given `cap_lattice` or `cap_nested`."""
    return ProblemInstance(inst.n, inst.group, inst.rep, names=inst.names, **caps)


@st.composite
def small_abelian_instances(draw):
    """One or two cyclic factors of order <= 4, one or two faithful
    characters, n <= 3 (n <= 2 past order 8, where n = 3 runs to seconds)."""
    factors = draw(st.lists(st.integers(2, 4), min_size=1, max_size=2))
    character = st.tuples(*(st.integers(0, d - 1) for d in factors)).map(list)
    characters = draw(st.lists(character, min_size=1, max_size=2))
    G = FiniteGroup.from_abelian(factors)
    n = draw(st.integers(1, 3 if G.order <= 8 else 2))
    try:
        rep = Representation.from_characters(G, characters)
    except InstanceError:
        assume(False)
    return ProblemInstance(n, G, rep)


def make_n3_grid():
    """Z/2, Z/3, Z/4 and the Klein group, each faithful, at n = 3."""
    specs = (
        ([2], [[1]]),
        ([3], [[1]]),
        ([4], [[1]]),
        ([2, 2], [[1, 0], [0, 1]]),
    )
    return [make_abelian_instance(f, c, 3) for f, c in specs]


def s3_cayley_table():
    perms = sorted(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    ]
    return perms, table


def _e_diff(a, b):
    base = {(0, 1): (1, 0), (1, 2): (0, 1), (0, 2): (1, 1)}
    if (a, b) in base:
        return base[(a, b)]
    x, y = base[(b, a)]
    return (-x, -y)


def deleted_permutation_matrix(p):
    """Matrix of a permutation of {0,1,2} on the sum-zero plane,
    in the basis f1 = e0 - e1, f2 = e1 - e2."""
    c1 = _e_diff(p[0], p[1])
    c2 = _e_diff(p[1], p[2])
    return ((c1[0], c2[0]), (c1[1], c2[1]))


def make_s3_instance(n):
    perms, table = s3_cayley_table()
    G = FiniteGroup.from_cayley(table)
    mats = {i: deleted_permutation_matrix(p) for i, p in enumerate(perms)}
    rep = Representation.from_matrices(G, mats)
    return ProblemInstance(n, G, rep)


KLEIN_NAMES = {
    (0,): "e",
    (0, 2): "H1",
    (0, 1): "H2",
    (0, 3): "D",
    (0, 1, 2, 3): "G",
}


@pytest.fixture(scope="session")
def z2():
    return make_abelian_instance([2], [[1]], 2)


@pytest.fixture(scope="session")
def z3():
    return make_abelian_instance([3], [[1]], 2)


@pytest.fixture(scope="session")
def z4():
    return make_abelian_instance([4], [[1]], 2)


@pytest.fixture(scope="session")
def klein(request):
    return make_abelian_instance([2, 2], [[1, 0], [0, 1]], 2, names=KLEIN_NAMES)


@pytest.fixture(scope="session")
def z4_plane():
    """Z/4 acting on a plane through the two faithful-together characters 1, 2;
    the closed subgroups form the chain {e} < <2> < G."""
    return make_abelian_instance([4], [[1], [2]], 2)


@pytest.fixture(scope="session")
def s3():
    return make_s3_instance(2)


@pytest.fixture(scope="session")
def chains8():
    """Z/2 x Z/4 with four characters: hosts two chains
    {e} < C2 < C1 < G and {e} < C2 < C1' < G of closed subgroups."""
    return make_abelian_instance(
        [2, 4], [[0, 1], [1, 2], [1, 0], [0, 2]], 8
    )
