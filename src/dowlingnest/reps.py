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
  character representations are also computed coordinate-wise over the
  integers (a coordinate is fixed by H iff every element of H has trivial
  character exponent there); the two routes agree and the matrix route is
  kept as a cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InstanceError
from .groups import Subgroup, subgroup_closure
from .linalg import RMatrix, Subspace, kernel


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


def companion_matrix(poly):
    """Companion matrix of a monic polynomial given by ascending coefficients."""
    deg = len(poly) - 1
    entries = [[Fraction(0)] * deg for _ in range(deg)]
    for i in range(1, deg):
        entries[i][i - 1] = Fraction(1)
    for i in range(deg):
        entries[i][deg - 1] = Fraction(-poly[i])
    return RMatrix(tuple(tuple(r) for r in entries))


def _block_diag(blocks):
    size = sum(b.rows for b in blocks)
    entries = [[Fraction(0)] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                entries[off + i][off + j] = b.entries[i][j]
        off += b.rows
    return RMatrix(tuple(tuple(r) for r in entries))


class Representation:
    """Group representation with one exact matrix per element.

    dim_v is the dimension of V over the complex numbers; matrix_dim is
    the dimension of the rational realization (dim_v * scalar_degree).
    """

    __slots__ = (
        "group",
        "dim_v",
        "scalar_degree",
        "matrices",
        "characters",
        "char_exponents",
        "_fix_cache",
    )

    def __init__(self, group, dim_v, scalar_degree, matrices, characters=None, char_exponents=None):
        self.group = group
        self.dim_v = dim_v
        self.scalar_degree = scalar_degree
        self.matrices = tuple(matrices)
        self.characters = characters
        self.char_exponents = char_exponents
        self._fix_cache = {}
        self._validate()

    @property
    def matrix_dim(self):
        return self.dim_v * self.scalar_degree

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
        comp = companion_matrix(cyclotomic_polynomial(N))
        deg = comp.rows
        powers = [RMatrix.identity(deg)]
        for _ in range(1, N):
            powers.append(powers[-1].mul(comp))
        matrices = tuple(
            _block_diag([powers[k] for k in exps[a]]) for a in range(group.order)
        )
        return cls(
            group,
            dim_v=len(chars),
            scalar_degree=deg,
            matrices=matrices,
            characters=chars,
            char_exponents=exps,
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
            known[g] = m
        if dim is None:
            raise InstanceError("no generator matrices given")
        known.setdefault(group.identity, RMatrix.identity(dim))
        changed = True
        while changed and len(known) < group.order:
            changed = False
            for a in list(known):
                for b in list(known):
                    ab = group.mul(a, b)
                    if ab not in known:
                        known[ab] = known[a].mul(known[b])
                        changed = True
        if len(known) < group.order:
            raise InstanceError("given matrices do not cover a generating set")
        matrices = tuple(known[g] for g in range(group.order))
        return cls(group, dim_v=dim, scalar_degree=1, matrices=matrices)

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
        The homomorphism, identity and faithfulness rules are decided on the
        integer forms (rows, den) of the matrices, with no Fraction built:
        the products by `RMatrix.forms_multiply_to`, and, as the form of a
        matrix is unique, equality of two matrices by equality of their
        forms.
        """
        G = self.group
        n = G.order
        if self.matrix_dim == 0:
            raise InstanceError("representation must have positive dimension")
        if len(self.matrices) != n:
            raise InstanceError("need one matrix per group element")
        forms = [m.integer_form() for m in self.matrices]
        for b in _generating_set(G):
            for a in range(n):
                if not RMatrix.forms_multiply_to(forms[a], forms[b], forms[G.mul(a, b)]):
                    raise InstanceError(
                        f"matrices are not a homomorphism at the pair ({a},{b})"
                    )
        # a homomorphism can still send e to an idempotent other than I
        if forms[G.identity] != RMatrix.identity(self.matrix_dim).integer_form():
            raise InstanceError("the identity element must act as the identity matrix")
        if len(set(forms)) != n:
            raise InstanceError("representation not faithful")
        if fix_subspace(self, range(n)).dim != 0:
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

    def fix(self, H):
        """Fixed subspace of a Subgroup, cached."""
        key = H.elements
        got = self._fix_cache.get(key)
        if got is None:
            got = fix_subspace(self, H.elements)
            self._fix_cache[key] = got
        return got

    def fix_true_dim(self, H):
        """Dimension of Fix(H) over the complex numbers."""
        return self.fix(H).dim // self.scalar_degree


def _generating_set(G):
    """A nonempty generating set of G, built greedily: each element not yet
    in the subgroup generated so far is added (the trivial group gives {e})."""
    gens = []
    span = (G.identity,)
    for a in range(G.order):
        if a not in span:
            gens.append(a)
            span = subgroup_closure(G, gens).elements
    return gens or [G.identity]


def fix_subspace(rep, elems):
    """Subspace of vectors fixed by every listed element.

    For character representations the fixed space is a union of coordinate
    blocks, read off from integer character exponents; otherwise it is the
    kernel of the matrices rho(g) - I stacked into one.
    """
    elems = tuple(elems)
    dim = rep.matrix_dim
    if rep.char_exponents is not None:
        coords = rep.fixed_coordinates(elems)
        deg = rep.scalar_degree
        basis = []
        for j in coords:
            for l in range(deg):
                v = [Fraction(0)] * dim
                v[j * deg + l] = Fraction(1)
                basis.append(tuple(v))
        return Subspace(ambient_dim=dim, basis=tuple(basis))
    ident = RMatrix.identity(dim)
    rows = tuple(
        row
        for g in elems
        if g != rep.group.identity
        for row in rep.matrix(g).sub(ident).entries
    )
    return kernel(RMatrix(rows)) if rows else Subspace.full(dim)


def fix_subspace_via_kernels(rep, elems):
    """Intersection of the kernels of rho(g) - I, one meet at a time,
    ignoring any character shortcut (cross-check path)."""
    dim = rep.matrix_dim
    space = Subspace.full(dim)
    ident = RMatrix.identity(dim)
    for g in elems:
        if g == rep.group.identity:
            continue
        space = space.intersect(kernel(rep.matrix(g).sub(ident)))
    return space


def pointwise_stabilizer(rep, subspace):
    """All g whose matrix fixes the given subspace pointwise."""
    out = []
    ident = RMatrix.identity(rep.matrix_dim)
    for g in range(rep.group.order):
        m = rep.matrix(g).sub(ident)
        if all(all(x == 0 for x in m.apply(v)) for v in subspace.basis):
            out.append(g)
    return Subgroup(tuple(out))
