"""From an arrangement to its building blocks and nested sets.

The sign representation of Z/2 with two factors produces four lines in the
plane (the reflection arrangement of signed permutations of two letters).
The minimal building set has five blocks, and exactly nine nonempty nested
sets exist.  They are the cliques of the block-compatibility graph, which
the enumeration lists; `is_nested`, checked antichain by antichain against
subspace arithmetic, is the definition they satisfy.

Run from the repository root:  python demos/02_blocks_and_nested_sets.py
"""

from dowlingnest import (
    FiniteGroup,
    ProblemInstance,
    Representation,
    block_subspace,
    building_blocks,
    enumerate_nested_sets,
    intersection_lattice,
    is_nested,
    raw_arrangement,
)

group = FiniteGroup.cyclic(2)
rep = Representation.from_characters(group, [[1]])
inst = ProblemInstance(2, group, rep)

print("raw arrangement (subspaces of the plane):")
for space in raw_arrangement(inst):
    print(f"  dim {space.dim}: basis {space.basis}")

lattice = intersection_lattice(inst)
print(f"\nintersection lattice: {len(lattice)} flats "
      f"(the ambient plane, four lines, the origin)")

print("\nbuilding blocks (label, pinned coordinates, coset choices):")
for blk in building_blocks(inst):
    dim = block_subspace(inst, blk).dim
    print(f"  {blk.describe(inst)}  -> subspace of dim {dim}")

sets = enumerate_nested_sets(inst)
print(f"\n{len(sets)} nonempty nested sets:")
for ns in sets:
    print("  { " + "; ".join(b.describe(inst) for b in ns.blocks) + " }")

# the pair of coordinate-axis blocks is NOT nested: their intersection is
# itself a block (both coordinates pinned to zero)
g_blocks = [b for b in building_blocks(inst) if len(b.subgroup) == 2 and len(b.indices) == 1]
print(f"\n{g_blocks[0].describe(inst)} and {g_blocks[1].describe(inst)} together:",
      "nested" if is_nested(inst, g_blocks) else "not nested")
