"""Graded integer exponential generating series: sums, products, and the
one convolution by the part holding the smallest label.

A graded series is a list whose entry d is a bucket {packed exponents:
integer} holding d! times the coefficients of degree d.  The exponent
vector (e_0, ..., e_(v-1)) over the series' variables is packed into the
integer sum of e_i * base^(v-1-i), so exponents add as integers and the
packed order is the tuple order.  `series` takes base = trunc + 1: a
product only pairs degrees d1 + d2 <= trunc, so every t-exponent stays
below the base, and so does the exponent of s, which never exceeds the
t-degree there.  One variable packs x^c as c, for any c.  Buckets are
shared between lists and never changed once built.  `series.dumps_series`
writes terms in packed order, relying on it being the tuple order.

`forests.count_forests` keeps its exponential on integer scalars: on
one-key buckets it is slower and no shorter.
"""

from __future__ import annotations

from math import comb


def bucket_sum(x, y):
    """x + y for buckets; an empty one gives back the other itself."""
    if not x:
        return y
    if not y:
        return x
    out = dict(x)
    get = out.get
    for k, c in y.items():
        out[k] = get(k, 0) + c
    return out


def product_into(acc, x, y, m):
    """acc += m * x * y for buckets."""
    get = acc.get
    for k1, c1 in x.items():
        c1 *= m
        for k2, c2 in y.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


def smallest_part(b, e, d):
    """Sum over k of C(d-1, k-1) b_k e_(d-k): the part of size k holding
    label 1 of {1..d} is an object of b, the other d-k labels one of e."""
    acc = {}
    for k in range(1, d + 1):
        if b[k] and e[d - k]:
            product_into(acc, b[k], e[d - k], comb(d - 1, k - 1))
    return acc


def exp(b):
    """exp(B) for a graded series B with no degree-0 term: a set of parts
    is the part holding the smallest label and a set of parts on the rest,
    so e_d = `smallest_part(b, e, d)`."""
    e = [{0: 1}]
    for d in range(1, len(b)):
        e.append(smallest_part(b, e, d))
    return e
