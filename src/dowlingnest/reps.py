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
space once, as its `integer_echelon`; the Fraction `RMatrix`es and
`Subspace`s are built from those only when asked for.  The Fraction routes
(fixed spaces meet by meet, stabilizers by rho(g) v = v, companion powers
as `RMatrix`es) are the oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import InstanceError
from .groups import Subgroup, generating_set
from .linalg import RMatrix, Subspace, form_product, kernel_echelon


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
    `forms[g]` is the `integer_form` (rows, den) of rho(g); everything
    reads the forms, and `matrices` are built from them on first use.
    Fixed spaces are cached per subgroup as integer echelons
    (`fix_echelon`), and as `Subspace`s (`fix`) only once asked for.
    """

    __slots__ = (
        "group",
        "dim_v",
        "scalar_degree",
        "forms",
        "characters",
        "char_exponents",
        "_matrices",
        "_echelons",
        "_fix_cache",
    )

    def __init__(
        self,
        group,
        dim_v,
        scalar_degree,
        matrices=None,
        characters=None,
        char_exponents=None,
        *,
        forms=None,
    ):
        self.group = group
        self.dim_v = dim_v
        self.scalar_degree = scalar_degree
        if forms is None:
            self._matrices = tuple(matrices)
            forms = (m.integer_form() for m in self._matrices)
        else:
            self._matrices = None
        self.forms = tuple(forms)
        self.characters = characters
        self.char_exponents = char_exponents
        self._echelons = {}
        self._fix_cache = {}
        self._validate()

    @property
    def matrix_dim(self):
        return self.dim_v * self.scalar_degree

    @property
    def matrices(self):
        """One Fraction `RMatrix` per element, built from the forms once."""
        if self._matrices is None:
            self._matrices = tuple(
                RMatrix(tuple(tuple(Fraction(x, den) for x in row) for row in rows))
                for rows, den in self.forms
            )
        return self._matrices

    def matrix(self, g):
        return self.matrices[g]

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
        exps = tuple(exps)
        powers = _companion_powers(N)
        deg = len(powers[0])
        forms = []
        for row in exps:
            # rho(a) is block diagonal, with powers[k] on coordinate j
            rows = []
            for j, k in enumerate(row):
                left, right = (0,) * (j * deg), (0,) * ((len(row) - 1 - j) * deg)
                rows.extend(left + r + right for r in powers[k])
            forms.append((tuple(rows), 1))
        return cls(
            group,
            dim_v=len(chars),
            scalar_degree=deg,
            characters=chars,
            char_exponents=exps,
            forms=forms,
        )

    @classmethod
    def from_matrices(cls, group, generator_matrices):
        """Extend matrices given on a generating set to all of G; the
        identity acts as the identity matrix unless a matrix is given for it
        (which `_validate` then checks)."""
        known = {}
        dim = None
        for g, m in generator_matrices.items():
            m = RMatrix(m.entries if isinstance(m, RMatrix) else m)
            if m.rows != m.cols:
                raise InstanceError(f"matrix for element {g} is not square")
            if dim is None:
                dim = m.rows
            elif m.rows != dim:
                raise InstanceError("generator matrices have mixed sizes")
            known[g] = m.integer_form()
        if dim is None:
            raise InstanceError("no generator matrices given")
        known.setdefault(group.identity, _identity_form(dim))
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
        """Reject matrices that are not a faithful homomorphism without a
        trivial summand.

        The homomorphism rule rho(a) rho(b) = rho(ab) is checked only for b
        in a generating set S of G, which is equivalent to checking all
        |G|^2 pairs.  S is nonempty and every b in G is a word s_1 ... s_k
        with k >= 1 letters from S (G is finite, so even e = s^ord(s)).
        Induct on k: k = 1 is the check itself, and for b = b's with b' of
        length k - 1,
            rho(a) rho(b) = rho(a) rho(b') rho(s)    (check at the pair b', s)
                          = rho(ab') rho(s)          (induction)
                          = rho(ab's) = rho(ab)      (check at the pair ab', s).
        Every rule is decided on the integer forms, with no Fraction matrix:
        as the form of a matrix is unique, two matrices are equal exactly
        when their forms are, and products are taken by `form_product`.
        """
        G = self.group
        n = G.order
        if self.matrix_dim == 0:
            raise InstanceError("representation must have positive dimension")
        forms = self.forms
        if len(forms) != n:
            raise InstanceError("need one matrix per group element")
        for b in generating_set(G):
            for a in range(n):
                if form_product(forms[a], forms[b]) != forms[G.mul(a, b)]:
                    raise InstanceError(
                        f"matrices are not a homomorphism at the pair ({a},{b})"
                    )
        # a homomorphism can still send e to an idempotent other than I
        if forms[G.identity] != _identity_form(self.matrix_dim):
            raise InstanceError("the identity element must act as the identity matrix")
        if len(set(forms)) != n:
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
        """Fixed subspace of a Subgroup, built from `fix_echelon` once."""
        got = self._fix_cache.get(H.elements)
        if got is None:
            got = Subspace.from_echelon(self.matrix_dim, self.fix_echelon(H))
            self._fix_cache[H.elements] = got
        return got

    def fix_true_dim(self, H):
        """Dimension of Fix(H) over the complex numbers."""
        return len(self.fix_echelon(H)) // self.scalar_degree


def _identity_form(dim):
    """The `integer_form` of the dim x dim identity."""
    return tuple(_unit(i, dim) for i in range(dim)), 1


def _unit(i, dim):
    return (0,) * i + (1,) + (0,) * (dim - 1 - i)


def fix_subspace(rep, elems):
    """Subspace of vectors fixed by every listed element."""
    return Subspace.from_echelon(rep.matrix_dim, _fix_echelon(rep, elems))


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
        return tuple(
            _unit(j * deg + l, dim)
            for j in rep.fixed_coordinates(elems)
            for l in range(deg)
        )
    rows = []
    for g in elems:
        if g != rep.group.identity:
            rows_g, den = rep.forms[g]
            rows.extend(
                [x - den if c == r else x for c, x in enumerate(row)]
                for r, row in enumerate(rows_g)
            )
    if not rows:
        return _identity_form(dim)[0]
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
