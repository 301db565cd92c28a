"""Exact rational matrices and subspaces in reduced row echelon form.

Everything here is over Fraction or int; no floating point is used anywhere,
so containment and equality of subspaces are genuine decisions.  A Subspace
is canonically represented by the RREF basis of its row space, which makes
set-equality of subspaces the same as equality of its compared fields.
There is one elimination, the fraction-free `integer_echelon`: `rref` and
`kernel` scale their rows to integers, eliminate there, and divide each row
by its pivot only at the end, and `RMatrix.mul` and `form_product` take
integer products over one denominator, skipping zero entries.  Fractions
are built only for what is returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

from .errors import AmbientMismatch, InstanceError
from .frozen import Frozen, _set

ZERO = Fraction(0)
ONE = Fraction(1)


class RMatrix(Frozen):
    """Immutable rational matrix."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row)
            for row in entries
        )
        _set(self, "entries", entries)
        if entries and any(len(r) != len(entries[0]) for r in entries):
            raise InstanceError("ragged matrix")

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows, cols):
        return cls(tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))

    def mul(self, other):
        """The product, as an integer product over one denominator."""
        if self.cols != other.rows:
            raise AmbientMismatch("matrix product shape mismatch")
        a, da = _over_one_denominator(self.entries)
        b, db = _over_one_denominator(other.entries)
        den = da * db
        return RMatrix(
            tuple(
                tuple(Fraction(x, den) for x in row) for row in _integer_product(a, b)
            )
        )

    def integer_form(self):
        """The `integer_form` of the entries."""
        return integer_form(self.entries)

    def sub(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise AmbientMismatch("matrix difference shape mismatch")
        return RMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def apply(self, vector):
        if len(vector) != self.cols:
            raise AmbientMismatch("matrix-vector shape mismatch")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)


def _over_one_denominator(rows):
    """(integer rows, den) with rows = integer rows / den, for int or Fraction."""
    rows = tuple(rows)
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
    """Linear subspace of Q^ambient_dim, stored as an RREF basis (rows).

    `echelon` is the `integer_echelon` of the same space, the key under
    which caches look a subspace up: it is set when the space is built from
    one, and otherwise computed once, on first use.  It takes no part in
    equality, hashing or repr.
    """

    __slots__ = ("ambient_dim", "basis", "_echelon")
    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis, _echelon=None):
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "basis", basis)
        _set(self, "_echelon", _echelon)

    @classmethod
    def from_spanning(cls, ambient_dim, vectors):
        vecs = tuple(vectors)
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch("spanning vector has wrong length")
        rows, _ = rref(vecs)
        return cls(ambient_dim=ambient_dim, basis=rows)

    @classmethod
    def from_echelon(cls, ambient_dim, echelon):
        """The Subspace spanned by the rows of an `integer_echelon`."""
        return cls(
            ambient_dim=ambient_dim,
            basis=_unit_pivots(echelon)[0],
            _echelon=echelon,
        )

    @classmethod
    def full(cls, ambient_dim):
        return cls(
            ambient_dim=ambient_dim,
            basis=RMatrix.identity(ambient_dim).entries,
        )

    @property
    def echelon(self):
        """The `integer_echelon` of the space: each RREF row times the lcm
        of its denominators, which is primitive as the row's pivot is 1."""
        if self._echelon is None:
            rows = (_over_one_denominator((row,))[0][0] for row in self.basis)
            _set(self, "_echelon", tuple(map(tuple, rows)))
        return self._echelon

    @property
    def dim(self):
        return len(self.basis)

    @property
    def codim(self):
        return self.ambient_dim - len(self.basis)

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(
                f"ambient dims differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def contains_vector(self, v):
        v = list(Fraction(x) for x in v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector has wrong length")
        for row in self.basis:
            lead = next((c for c, x in enumerate(row) if x != 0), None)
            if lead is not None and v[lead] != 0:
                f = v[lead]
                v = [x - f * y for x, y in zip(v, row)]
        return all(x == 0 for x in v)

    def contains(self, other):
        """Set containment: other is a subspace of self."""
        self._check(other)
        return all(self.contains_vector(v) for v in other.basis)

    def sum(self, other):
        self._check(other)
        return Subspace.from_spanning(self.ambient_dim, self.basis + other.basis)

    def perp(self):
        """Orthogonal complement under the standard dot product.

        Over Q the form is positive definite, so perp is a genuine
        complement and perp(perp(S)) == S.
        """
        return Subspace.from_echelon(
            self.ambient_dim, kernel_echelon(self.basis, self.ambient_dim)
        )

    def intersect(self, other):
        self._check(other)
        return self.perp().sum(other.perp()).perp()

    @property
    def sort_key(self):
        return (len(self.basis), self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}/{self.ambient_dim})"


def kernel(M):
    """Canonical Subspace of all v with M v = 0."""
    return Subspace.from_echelon(M.cols, kernel_echelon(M.entries, M.cols))


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
