"""Counting nested sets three ways.

For abelian groups the labelled forests have an exponential generating
series assembled from one tree series per proper closed subgroup: a
product of operator exponentials handles grafting smaller-label trees onto
leaf slots of larger-label trees, a factor exp(s*t) sprinkles fallen
leaves, and a geometric series accounts for the single tree allowed to
carry full-group vertices.  The t^n/n! coefficient at s = 1 must equal
both enumeration counts.

Run from the repository root:  python demos/04_counting_series.py
"""

from math import factorial

from dowlingnest import (
    FiniteGroup,
    ProblemInstance,
    Representation,
    Subgroup,
    big_g,
    count_nested_sets,
    enumerate_forests,
    lambda_bar,
    lambda_for_subgroup,
    nested_count_via_series,
)

print("tree series: trees whose internal vertices all have >= 2 children,")
print("with r coset labels per extra edge (the smallest-leaf edge is pinned):")
for r in (1, 2, 3, 4):
    lam = lambda_bar(r, 5)
    counts = [int(lam.coeffs.get((l,), 0) * factorial(l)) for l in range(1, 6)]
    print(f"  r={r}: counts by leaves {counts}")

group = FiniteGroup.from_abelian([2, 2])
rep = Representation.from_characters(group, [[1, 0], [0, 1]])
inst = ProblemInstance(2, group, rep)

print("\nKlein four-group on the plane: the two order-2 labels share the")
print("quotient size 2, so they share a tree series; the trivial label")
print("runs at quotient size 4 and forbids unary vertices:")
h1 = lambda_for_subgroup(inst, Subgroup((0, 2)), 4)
e = lambda_for_subgroup(inst, Subgroup((0,)), 4)
print("  order-2 label:", [str(h1.coeffs.get((l,), 0)) for l in range(1, 5)])
print("  trivial label:", [str(e.coeffs.get((l,), 0)) for l in range(1, 5)])

print("\nthree routes to the same counts:")
print(f"{'group':10} {'n':>2} {'cliques':>12} {'forests':>8} {'series':>7}")
for factors, chars, name in (
    ([2], [[1]], "Z/2"),
    ([3], [[1]], "Z/3"),
    ([4], [[1]], "Z/4"),
    ([2, 2], [[1, 0], [0, 1]], "Z/2 x Z/2"),
):
    g = FiniteGroup.from_abelian(factors)
    r = Representation.from_characters(g, chars)
    for n in (1, 2, 3):
        sub = ProblemInstance(n, g, r)
        a = count_nested_sets(sub)
        b = len(enumerate_forests(sub))
        c = nested_count_via_series(sub, n)
        flag = "" if a == b == c else "   <-- DISAGREE"
        print(f"{name:10} {n:>2} {a:>12} {b:>8} {c:>7}{flag}")

at_s1 = {}  # G(1, t): the coefficients of each power of t, summed over s
for (_, n), coeff in big_g(inst, 3).terms():
    at_s1[n] = at_s1.get(n, 0) + coeff
print("\nthe full series at s=1, Klein four-group, through degree 3:")
for n, coeff in sorted(at_s1.items()):
    print(f"  t^{n}: coefficient {coeff} -> {int(coeff * factorial(n))} nested sets")
