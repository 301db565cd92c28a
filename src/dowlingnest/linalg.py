"""Exact rational matrices, and subspaces as canonical integer echelons.

Everything here is over int or Fraction, and any other entry (a float,
say) raises TypeError, so containment and equality of subspaces are
genuine decisions.  A matrix is held as its integer form (rows, den),
integer rows over one denominator, and `form_product` multiplies two of
them, skipping zero entries.  A Subspace holds only the canonical
`integer_echelon` of its row space and works on integer rows.  There is
one elimination, the fraction-free `integer_echelon`: `rref` and `kernel`
scale their rows to integers, eliminate there, and divide each row by
its pivot only at the end.  Fractions are built only for what is returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count
from math import gcd, lcm
from numbers import Rational

from .errors import AmbientMismatch
from .frozen import Frozen, _set


def _over_one_denominator(rows):
    """(integer rows, den) with rows = integer rows / den; an entry not int or
    Fraction raises TypeError, as a float is not the decimal it prints."""
    rows = tuple(rows)
    for x in chain.from_iterable(rows):
        if type(x) is not int and not isinstance(x, Rational):  # the ABC check is slow
            raise TypeError(f"entry {x!r} is not an int or a Fraction")
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def integer_form(rows):
    """(integer rows, den) with rows = integer rows / den, den the lcm of the
    entries' denominators, for int or Fraction rows; as den is the least
    such, equal matrices have equal forms."""
    ints, den = _over_one_denominator(rows)
    return tuple(map(tuple, ints)), den


def form_product(a, b):
    """The `integer_form` of A B, for A and B given by theirs, with no
    Fraction built.  A B = rows_a rows_b / (den_a den_b); dividing that
    numerator and denominator by g, the gcd of the denominator and every
    entry, leaves the lcm of the entries' denominators, because
    lcm_i (D / gcd(D, x_i)) = D / gcd(D, x_1, x_2, ...)."""
    (rows_a, den_a), (rows_b, den_b) = a, b
    if set(map(len, rows_a)) - {len(rows_b)}:
        raise AmbientMismatch("matrix product shape mismatch")
    product = _integer_product(rows_a, rows_b)
    den = den_a * den_b
    if den == 1:  # gcd(1, ...) = 1
        return tuple(map(tuple, product)), 1
    g = gcd(den, *(x for row in product for x in row))
    if g > 1:
        product = [[x // g for x in row] for row in product]
    return tuple(map(tuple, product)), den // g


def _integer_product(a, b):
    """The product of two integer matrices given as rows: row i of A B is
    the sum of a_ik times row k of B over the nonzero a_ik only, as the
    companion and monomial matrices of representations are mostly zeros.
    A result row may be a row of B itself, so the result is only read."""
    zero = (0,) * (len(b[0]) if b else 0)
    out = []
    for row in a:
        acc = zero
        for x, row_b in zip(row, b):
            if x:
                if acc is zero:
                    acc = row_b if x == 1 else [x * y for y in row_b]
                else:
                    acc = [s + x * y for s, y in zip(acc, row_b)]
        out.append(acc)
    return out


def _unit_pivots(echelon):
    """The RREF of an `integer_echelon` (each row over its pivot), and its pivots."""
    pivots = pivot_columns(echelon)
    rows = (tuple(Fraction(x, row[p]) for x in row) for row, p in zip(echelon, pivots))
    return tuple(rows), pivots


def rref(rows):
    """Reduced row echelon form; returns (rows_without_zero_rows, pivot_columns)."""
    return _unit_pivots(integer_echelon(_over_one_denominator(rows)[0]))


class Subspace(Frozen):
    """Linear subspace of Q^ambient_dim, held as the `integer_echelon` of
    its row space alone: canonical, so equal spaces have equal fields, and
    the key caches look a space up by.  The constructor trusts `echelon` to
    be one (row tuples); `from_spanning` builds it from any vectors.
    `basis`, the Fraction RREF, is derived on each read, for printing.
    """

    __slots__ = ("ambient_dim", "echelon")

    def __init__(self, ambient_dim, echelon):
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "echelon", echelon)

    @classmethod
    def from_spanning(cls, ambient_dim, vectors):
        vecs = tuple(vectors)
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch("spanning vector has wrong length")
        return cls(ambient_dim, integer_echelon(_over_one_denominator(vecs)[0]))

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, unit_rows(ambient_dim, range(ambient_dim)))

    @property
    def basis(self):
        """The RREF basis, Fraction rows: each echelon row over its pivot."""
        return _unit_pivots(self.echelon)[0]

    @property
    def dim(self):
        return len(self.echelon)

    @property
    def codim(self):
        return self.ambient_dim - len(self.echelon)

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def contains_vector(self, v):
        """Whether v, scaled to integers and cleared at every pivot, is 0."""
        (v,), _ = _over_one_denominator((v,))
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector has wrong length")
        for row, p in zip(self.echelon, pivot_columns(self.echelon)):
            a = v[p]
            if a:
                v = [row[p] * x - a * y for x, y in zip(v, row)]
        return not any(v)

    def contains(self, other):
        """Set containment: other is a subspace of self."""
        self._check(other)
        return all(map(self.contains_vector, other.echelon))

    def sum(self, other):
        self._check(other)
        return Subspace(self.ambient_dim, integer_echelon(self.echelon + other.echelon))

    def perp(self):
        """Orthogonal complement under the standard dot product.

        Over Q the form is positive definite, so perp is a genuine
        complement and perp(perp(S)) == S.
        """
        return Subspace(self.ambient_dim, kernel_echelon(self.echelon, self.ambient_dim))

    def intersect(self, other):
        self._check(other)
        return self.perp().sum(other.perp()).perp()

    @property
    def sort_key(self):
        return (len(self.echelon), self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient_dim})"


def unit_rows(dim, columns):
    """The unit vectors e_c of Z^dim for c in `columns`, as tuples; for
    increasing columns they are an `integer_echelon`."""
    return tuple((0,) * c + (1,) + (0,) * (dim - 1 - c) for c in columns)


def kernel(rows, ncols):
    """Canonical Subspace of all v in Q^ncols with row . v = 0 for each of
    the int or Fraction `rows`."""
    return Subspace(ncols, kernel_echelon(rows, ncols))


def kernel_echelon(rows, ncols):
    """The `integer_echelon` of {v in Q^ncols : row . v = 0 for each row},
    for int or Fraction rows.

    With L the lcm of the pivots of the rows' echelon, each free column f
    gives the vector with L at f, -L * row[f] / row[p] at the pivot p of
    each echelon row and 0 elsewhere.  An echelon row is 0 at the other
    pivots, so it is orthogonal to that vector; the ncols - rank vectors
    are independent, so they span the kernel.
    """
    echelon = integer_echelon(_over_one_denominator(rows)[0])
    pivots = pivot_columns(echelon)
    L = lcm(*(row[p] for row, p in zip(echelon, pivots)))
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = L
        for row, p in zip(echelon, pivots):
            v[p] = -(L // row[p]) * row[f]
        basis.append(v)
    return integer_echelon(basis)


def _lead(row):
    """Index of the first nonzero entry, or None for a zero row."""
    return next(compress(count(), row), None)


def _coprime(ints):
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def integer_echelon(rows):
    """Canonical integer basis of the row space of integer `rows`.

    It is the RREF of `rref` with every row scaled to a primitive integer
    vector whose pivot is positive.  Rows are inserted one at a time into a
    basis keyed by pivot column, without division (each step is
    p * row - a * pivot_row, then the common factor is removed): a new row
    is cleared at every pivot, its first nonzero entry becomes a new pivot,
    and that column is cleared from the older rows.  An older row is nonzero
    there only when its own pivot lies further left, so every row keeps its
    pivot as its first nonzero entry and stays 0 at the other pivots.  Such
    a row is a multiple of the matching RREF row, which is the one vector of
    the row space with a 1 at its pivot and 0 at the other pivots; the final
    scaling picks one multiple, so equal row spaces give equal tuples.
    Rows that are already in this form cost no arithmetic.
    """
    basis = {}  # pivot column -> row
    for v in rows:
        for c, row in basis.items():
            a = v[c]
            if a:
                v = _coprime([row[c] * x - a * y for x, y in zip(v, row)])
        c = _lead(v)
        if c is None:
            continue
        p = v[c]
        for c2, row in basis.items():
            a = row[c]
            if a:
                basis[c2] = _coprime([p * x - a * y for x, y in zip(row, v)])
        basis[c] = v
    out = []
    for c, row in sorted(basis.items()):
        row = _coprime(row)
        out.append(tuple(row) if row[c] > 0 else tuple(-x for x in row))
    return tuple(out)


def pivot_columns(echelon):
    """The pivot column of each row of an `integer_echelon` result."""
    return tuple(map(_lead, echelon))
