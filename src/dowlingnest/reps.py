"""Faithful representations with exact rational matrices.

Two input styles are supported:

* explicit rational matrices on a generating set (Cayley-table groups),
  extended by multiplicativity and verified to be a homomorphism;

* character tuples for abelian groups, one per coordinate of V.  The
  character value zeta_N^k (N = exponent of the group) is realized over Q
  by the k-th power of the companion matrix of the N-th cyclotomic
  polynomial.  Every coordinate of V then becomes a block of size
  phi(N), all subspace computations stay rational, and every dimension in
  sight is uniformly scaled by the same factor, so containments, direct
  sums and codimension identities are untouched.  Fixed subspaces of
  character representations are computed coordinate-wise over the
  integers (a coordinate is fixed by H iff every element of H has trivial
  character exponent there).

Each matrix is held once, as its integer form (rows, den), and each fixed
space once, as its `integer_echelon`, all that a fixed `Subspace` holds;
one is built from its echelon only when asked for.  Character input is
checked on its exponents, and its forms are built only when first read.
The Fraction routes (fixed spaces meet by meet, stabilizers by
rho(g) v = v, companion powers as Fraction matrices, character input
checked on its matrices) are the oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from numbers import Rational
from operator import mul

from .errors import InstanceError
from .groups import Subgroup, generating_set
from .linalg import Subspace, form_product, integer_form, kernel_echelon, unit_rows


def cyclotomic_polynomial(n):
    """Coefficients (ascending) of the n-th cyclotomic polynomial, via
    exact division of x^n - 1 by the cyclotomic polynomials of proper divisors."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q = cyclotomic_polynomial(d)
            poly = _poly_divide_exact(poly, q)
    return poly


def _poly_divide_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(x != 0 for x in num):
        raise InstanceError("cyclotomic division left a remainder")
    return out


def _companion_powers(N):
    """The integer powers C^0, ..., C^(N-1) of the companion matrix C of
    the N-th cyclotomic polynomial p, as tuples of rows.  C has ones below
    the diagonal and -p in its last column, so column j of M C is column
    j + 1 of M and its last column is -M p: each power costs deg^2."""
    poly = cyclotomic_polynomial(N)
    deg = len(poly) - 1
    power = [[int(i == j) for j in range(deg)] for i in range(deg)]
    powers = []
    for _ in range(N):
        powers.append(tuple(map(tuple, power)))
        power = [row[1:] + [-sum(map(mul, row, poly))] for row in power]
    return powers


class Representation:
    """Group representation with one exact matrix per element.

    dim_v is the dimension of V over the complex numbers; matrix_dim is
    the dimension of the rational realization (dim_v * scalar_degree).
    `forms[g]` is the `integer_form` (rows, den) of rho(g), and everything
    reads the forms.  Given character exponents and no forms, the forms
    are built on first use, from the exponents.  Fixed spaces are
    cached per subgroup as integer echelons (`fix_echelon`); `fix` builds
    a `Subspace` from its cached echelon on each call, with no elimination.
    """

    __slots__ = (
        "group",
        "dim_v",
        "scalar_degree",
        "characters",
        "char_exponents",
        "_forms",
        "_echelons",
    )

    def __init__(
        self, group, dim_v, scalar_degree, *, characters=None, char_exponents=None, forms=None
    ):
        self.group = group
        self.dim_v = dim_v
        self.scalar_degree = scalar_degree
        self._forms = None if forms is None else tuple(forms)
        self.characters = characters
        self.char_exponents = char_exponents
        self._echelons = {}
        self._validate()

    @property
    def matrix_dim(self):
        return self.dim_v * self.scalar_degree

    @property
    def forms(self):
        """One `integer_form` per element; for character input built once,
        from the exponents: rho(a) is block diagonal with C^k on coordinate
        j, C^k the k-th companion power and k = char_exponents[a][j]."""
        if self._forms is None:
            powers = _companion_powers(self.group.exponent())
            deg, dim_v = self.scalar_degree, self.dim_v
            forms = []
            for row in self.char_exponents:
                rows = []
                for j, k in enumerate(row):
                    left, right = (0,) * (j * deg), (0,) * ((dim_v - 1 - j) * deg)
                    rows.extend(left + r + right for r in powers[k % len(powers)])
                forms.append((tuple(rows), 1))
            self._forms = tuple(forms)
        return self._forms

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_characters(cls, group, characters):
        """Abelian group acting diagonally through the given characters.

        Each character is a tuple (c_1, ..., c_m) against the invariant
        factors (d_1, ..., d_m): the generator of factor i acts on that
        coordinate by the primitive d_i-th root of unity to the power c_i.
        """
        if group.abelian_spec is None:
            raise InstanceError("character input requires an abelian invariant-factor group")
        spec = group.abelian_spec
        if not all(
            isinstance(ch, (list, tuple)) and all(type(c) is int for c in ch)
            for ch in characters
        ):
            raise InstanceError("each character must be a list of integers")
        chars = tuple(tuple(ch) for ch in characters)
        for ch in chars:
            if len(ch) != len(spec):
                raise InstanceError(
                    f"character {ch} has {len(ch)} entries, expected {len(spec)}"
                )
        N = group.exponent()
        # exponent of zeta_N for element a on coordinate j
        exps = []
        for a in range(group.order):
            coords = group.id_to_tuple(a)
            row = tuple(
                sum(c * x * (N // d) for c, x, d in zip(ch, coords, spec)) % N
                for ch in chars
            )
            exps.append(row)
        return cls(
            group,
            dim_v=len(chars),
            scalar_degree=len(cyclotomic_polynomial(N)) - 1,
            characters=chars,
            char_exponents=tuple(exps),
        )

    @classmethod
    def from_matrices(cls, group, generator_matrices):
        """Extend matrices given on a generating set to all of G.  Each
        matrix is a sequence of rows of int or Fraction entries; the
        identity acts as the identity matrix unless a matrix is given for it
        (which `_validate` then checks)."""
        known = {}
        dim = None
        for g, m in generator_matrices.items():
            m = tuple(map(tuple, m))
            if any(len(row) != len(m) for row in m):
                raise InstanceError(f"matrix for element {g} is not square")
            if dim is None:
                dim = len(m)
            elif len(m) != dim:
                raise InstanceError("generator matrices have mixed sizes")
            if not all(isinstance(x, Rational) for row in m for x in row):
                raise InstanceError(f"matrix for element {g} has an entry not int or Fraction")
            known[g] = integer_form(m)
        if dim is None:
            raise InstanceError("no generator matrices given")
        known.setdefault(group.identity, (unit_rows(dim, range(dim)), 1))
        changed = True
        while changed and len(known) < group.order:
            changed = False
            for a in list(known):
                for b in list(known):
                    ab = group.mul(a, b)
                    if ab not in known:
                        known[ab] = form_product(known[a], known[b])
                        changed = True
        if len(known) < group.order:
            raise InstanceError("given matrices do not cover a generating set")
        forms = tuple(known[g] for g in range(group.order))
        return cls(group, dim_v=dim, scalar_degree=1, forms=forms)

    # -- validation -----------------------------------------------------------

    def _validate(self):
        """Reject a representation that is not a faithful homomorphism
        without a trivial summand.

        The homomorphism rule rho(a) rho(b) = rho(ab) is checked only for b
        in a generating set S of G, which is equivalent to checking all
        |G|^2 pairs.  S is nonempty and every b in G is a word s_1 ... s_k
        with k >= 1 letters from S (G is finite, so even e = s^ord(s)).
        Induct on k: k = 1 is the check itself, and for b = b's with b' of
        length k - 1,
            rho(a) rho(b) = rho(a) rho(b') rho(s)    (check at the pair b', s)
                          = rho(ab') rho(s)          (induction)
                          = rho(ab's) = rho(ab)      (check at the pair ab', s).

        Given forms, every rule is decided on the integer forms, with no
        Fraction matrix: as the form of a matrix is unique, two
        matrices are equal exactly when their forms are, and products are
        taken by `form_product`.

        Character input is decided on its exponent vectors mod N, the
        exponent of G, added coordinatewise.  rho(a) is block diagonal with
        C^x on coordinate j, x the exponent of a there and C the companion
        matrix of the N-th cyclotomic polynomial Phi_N.  C has order exactly
        N: a companion matrix has its polynomial as minimal polynomial, so
        C^k = I exactly when Phi_N divides x^k - 1, that is when its roots,
        the primitive N-th roots of unity, are k-th roots of unity, that is
        when N divides k.  C is invertible (Phi_N(0) = +-1), so C^i = C^j
        exactly when i = j (mod N).  So the map from exponent vectors mod N
        to matrices is an injective homomorphism, and each rule holds for
        rho exactly when it holds for the exponent vectors, pair by pair.
        """
        G = self.group
        n = G.order
        if self.matrix_dim == 0:
            raise InstanceError("representation must have positive dimension")
        if self._forms is None:
            N = G.exponent()
            images = tuple(tuple(x % N for x in row) for row in self.char_exponents)
            one = (0,) * self.dim_v

            def product(u, v):
                return tuple((x + y) % N for x, y in zip(u, v))

        else:
            images, product = self._forms, form_product
            one = unit_rows(self.matrix_dim, range(self.matrix_dim)), 1
        if len(images) != n:
            raise InstanceError("need one matrix per group element")
        for b in generating_set(G):
            for a in range(n):
                if product(images[a], images[b]) != images[G.mul(a, b)]:
                    raise InstanceError(
                        f"matrices are not a homomorphism at the pair ({a},{b})"
                    )
        # a homomorphism can still send e to an idempotent other than I
        if images[G.identity] != one:
            raise InstanceError("the identity element must act as the identity matrix")
        if len(set(images)) != n:
            raise InstanceError("representation not faithful")
        if self.fix_echelon(Subgroup(range(n))):
            raise InstanceError(
                "representation contains the trivial representation "
                "(the full group fixes a nonzero vector)"
            )

    # -- fixed subspaces --------------------------------------------------------

    def fixed_coordinates(self, elems):
        """Coordinates of V fixed by every element (character input only)."""
        if self.char_exponents is None:
            raise InstanceError("fixed_coordinates requires character input")
        elems = tuple(elems)
        return tuple(
            j
            for j in range(self.dim_v)
            if all(self.char_exponents[g][j] == 0 for g in elems)
        )

    def fix_echelon(self, H):
        """The `integer_echelon` of the fixed subspace of a Subgroup, cached."""
        got = self._echelons.get(H.elements)
        if got is None:
            got = self._echelons[H.elements] = _fix_echelon(self, H.elements)
        return got

    def fix(self, H):
        """Fixed subspace of a Subgroup, built from the cached `fix_echelon`."""
        return Subspace(self.matrix_dim, self.fix_echelon(H))

    def fix_true_dim(self, H):
        """Dimension of Fix(H) over the complex numbers."""
        return len(self.fix_echelon(H)) // self.scalar_degree


def _fix_echelon(rep, elems):
    """The `integer_echelon` of the vectors fixed by every listed element.

    For character representations the fixed space is a union of coordinate
    blocks, read off from integer character exponents, and its echelon is
    their unit rows; otherwise it is the kernel of the integer rows
    rows_g - den_g I of the forms, stacked: their kernel is that of
    rho(g) - I = (rows_g - den_g I) / den_g.
    """
    elems = tuple(elems)
    dim = rep.matrix_dim
    if rep.char_exponents is not None:
        deg = rep.scalar_degree
        fixed = rep.fixed_coordinates(elems)
        return unit_rows(dim, (j * deg + l for j in fixed for l in range(deg)))
    rows = []
    for g in elems:
        if g != rep.group.identity:
            rows_g, den = rep.forms[g]
            rows.extend(
                [x - den if c == r else x for c, x in enumerate(row)]
                for r, row in enumerate(rows_g)
            )
    if not rows:
        return unit_rows(dim, range(dim))
    return kernel_echelon(rows, dim)


def pointwise_stabilizer(rep, subspace):
    """All g whose matrix fixes the given subspace pointwise."""
    return stabilizer(rep, subspace.echelon)


def stabilizer(rep, vectors):
    """All g whose matrix fixes every one of the integer `vectors`: with
    rho(g) = rows_g / den_g, those with rows_g w = den_g w for every w."""
    return Subgroup(
        tuple(
            g
            for g, (rows, den) in enumerate(rep.forms)
            if all(
                sum(map(mul, row, w)) == den * x
                for w in vectors
                for row, x in zip(rows, w)
            )
        )
    )
