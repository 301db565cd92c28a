"""Nonabelian families built from integer generator matrices (D4, Q8, A4
and S4, see `conftest.NONABELIAN_GENERATORS`): the forests and the
intersection lattice match their oracles, and the counts are pinned."""

from __future__ import annotations

import pytest

from dowlingnest import (
    count_forests,
    count_nested_sets,
    enumerate_forests,
    flat_counts,
    intersection_lattice,
)

from conftest import make_nonabelian_instance
from oracles import forests_by_partitions, lattice_oracle

# count_forests = count_nested_sets = the number of forests, and the number
# of flats, at n = 1, 2, ...
FOREST_COUNTS = {
    "D4": (9, 357, 22337),
    "Q8": (1, 21, 681),
    "A4": (15, 847),
    "S4": (63, 13327),
}
FLAT_TOTALS = {
    "D4": (6, 60, 776),
    "Q8": (2, 12, 120),
    "A4": (9, 127),
    "S4": (15, 355),
}
CASES = [
    (name, n) for name, counts in FOREST_COUNTS.items() for n in range(1, len(counts) + 1)
]


@pytest.mark.parametrize("name, n", CASES)
def test_counts_are_pinned(name, n):
    inst = make_nonabelian_instance(name, n)
    assert count_forests(inst) == count_nested_sets(inst) == FOREST_COUNTS[name][n - 1]
    assert sum(flat_counts(inst).values()) == FLAT_TOTALS[name][n - 1]


@pytest.mark.parametrize("name, n", CASES)
def test_enumeration_matches_the_partition_oracle(name, n):
    inst = make_nonabelian_instance(name, n)
    forests = enumerate_forests(inst)
    assert len(forests) == FOREST_COUNTS[name][n - 1]
    assert forests == forests_by_partitions(inst)


@pytest.mark.parametrize("name, n", [("D4", 2), ("Q8", 2), ("A4", 2), ("S4", 1)])
def test_lattice_matches_the_subspace_meet_oracle(name, n):
    inst = make_nonabelian_instance(name, n)
    mine = intersection_lattice(inst)
    oracle = lattice_oracle(inst)
    assert mine.elements == oracle.elements
    assert mine.up == oracle.up
    assert len(mine.elements) == FLAT_TOTALS[name][n - 1]
    dims = {}
    for flat in oracle.elements:
        dims[flat.dim] = dims.get(flat.dim, 0) + 1
    assert flat_counts(inst) == dims
