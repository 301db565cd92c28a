"""Deterministic JSON and DOT emitters for lattices, nested sets, forests."""

from __future__ import annotations

import json
from fractions import Fraction

from .arrangement import enumerate_nested_sets, intersection_lattice
from .forests import (
    Leaf,
    enumerate_forests,
    forest_to_json,
)


def dumps(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _dot_string(text):
    """`text` as a DOT quoted string: backslashes and quotes escaped, so an
    instance's subgroup names cannot end the string early."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lattice_json(inst):
    poset = intersection_lattice(inst)
    # a basis row is the echelon row over its pivot, written once per
    # distinct row, as the flats share their blocks' rows
    written = {}

    def basis_row(row):
        got = written.get(row)
        if got is None:
            pivot = next(filter(None, row))
            got = written[row] = [str(Fraction(x, pivot)) for x in row]
        return got

    return {
        "ambient_dim": inst.ambient_dim,
        "elements": [
            {"dim": s.dim, "basis": list(map(basis_row, s.echelon))} for s in poset.elements
        ],
        "covers": [list(c) for c in poset.covers()],
    }


def lattice_dot(inst):
    poset = intersection_lattice(inst)
    lines = ["digraph lattice {"]
    for i, s in enumerate(poset.elements):
        lines.append(f'  n{i} [label="dim {s.dim}"];')
    for lo, hi in poset.covers():
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _block_json(inst, blk):
    return {
        "subgroup": list(blk.subgroup.elements),
        "indices": list(blk.indices),
        "cosets": list(blk.cosets),
        "label": blk.describe(inst),
    }


def nested_covers(sets):
    """Cover pairs (i, j) of the inclusion order on `sets`, sorted.

    Every subset of a nested set is nested, so when S is strictly inside T
    and T has a block b not in S, the set T minus b lies between them
    unless it equals S: T covers exactly the sets T minus one block.  The
    empty set is not listed, so a single block covers nothing.  On the full
    enumeration the pairs equal `nested_sets_poset(sets).covers()`.
    """
    index = {frozenset(ns.blocks): j for j, ns in enumerate(sets)}
    pairs = []
    for above, j in index.items():
        for b in above:
            below = index.get(above - {b})
            if below is not None:
                pairs.append((below, j))
    return sorted(pairs)


def nested_json(inst):
    sets = enumerate_nested_sets(inst)
    return {
        "count": len(sets),
        "nested_sets": [
            [_block_json(inst, b) for b in ns.blocks] for ns in sets
        ],
        "covers": [list(c) for c in nested_covers(sets)],
    }


def nested_dot(inst):
    sets = enumerate_nested_sets(inst)
    lines = ["digraph nested {"]
    for i, ns in enumerate(sets):
        label = "; ".join(b.describe(inst) for b in ns.blocks)
        lines.append(f"  n{i} [label={_dot_string(label)}];")
    for lo, hi in nested_covers(sets):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def forests_json(inst):
    forests = enumerate_forests(inst)
    return {
        "count": len(forests),
        "forests": [forest_to_json(f) for f in forests],
    }


def forests_dot(inst):
    forests = enumerate_forests(inst)
    chunks = []
    for fi, forest in enumerate(forests):
        lines = [f"digraph forest_{fi} {{"]
        counter = [0]

        def emit(node):
            my_id = f"f{fi}_v{counter[0]}"
            counter[0] += 1
            if isinstance(node, Leaf):
                lines.append(f'  {my_id} [shape=plaintext, label="{node.label}"];')
                return my_id
            name = _dot_string(inst.subgroup_label(node.subgroup))
            lines.append(f"  {my_id} [label={name}];")
            for rep, child in node.children:
                child_id = emit(child)
                lines.append(f'  {my_id} -> {child_id} [label="{rep}"];')
            return my_id

        for tree in forest.trees:
            emit(tree)
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + "\n"
