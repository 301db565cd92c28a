"""Truncated multivariate exponential generating series, exactly.

A MultiSeries is a polynomial over an ordered variable tuple with rational
coefficients.  The variable 's' (component counter) is exempt from
truncation; all other variables are t-type and their total degree is
hard-capped by the truncation bound.  Coefficients are stored in
EGF-normalized form: the rational multiplying the monomial, factorials
folded in, so integer counts are recovered by multiplying back.  They are
held as integer numerators over one common denominator, so the arithmetic
is on Python ints and never on floats or tolerances.

The tree series: lambda_bar(r, N) counts leaf-labelled rooted trees whose
internal vertices all have at least two children, where a vertex with c
children carries r^(c-1) admissible edge labelings (the edge toward the
smallest leaf is pinned).  With B = t + lambda_bar, grouping the root's
children gives the functional equation

    lambda_bar = (1/r) * (exp(r*B) - 1 - r*B),

which `_graded_lambda` solves by an integer recurrence on the EGF
coefficients of lambda_bar and exp(r*B), read off from the derivatives of
both sides (O(trunc^2) big-integer steps).  The same recurrence, with any
series U in place of t, gives lambda_bar(U) directly.  The counts also
arise from weighted partitions: trees with l leaves and k internal vertices
biject with partitions of an (l+k-1)-set into k blocks of size >= 2, a
block of size i weighing r^(i-1); partition_oracle recursion pins that down
independently.

The forest series `gamma_tilde` in (s, t, t_K) is defined by one commuting
operator exponential per proper closed subgroup H.  Each operator
exp(lam_H(t_H) d/dt_K) is, by Taylor's theorem, the translation
t_K -> t_K + lam_H(t_H), so the series is exp(s * sum over K of lam_K(T_K))
with T_K = t_K + sum over H strictly inside K of lam_H(T_H), smallest label
first (the proof is in `gamma_tilde`).  Each lam_K(T_K) comes from the tree
recurrence with T_K in place of t, so `gamma_tilde` builds no operator: it
composes graded integer series (`egf`) once per label and takes one
exponential.

The counting series is written once, on the same graded integers:

    G = (s phi + 1) Gamma_st - e^(s t),   phi = 1/(2 - Gamma(1, t)) - 1,

with Gamma_st = e^(s t) Gamma~_t and Gamma~_t the forest series with every
t_K replaced by t.  This is s phi Gamma_st + e^(s t) (Gamma~_t - 1), as
e^(s t) (Gamma~_t - 1) = Gamma_st - e^(s t).  `big_g` packs s at weight
trunc + 1, apart from t.  The count at s = 1 needs no G: with y = phi + 1,
G(1, t) = 2 y - 1 - e^t (`nested_count_via_series`), so it takes Gamma(1,
t) and y alone.  `gamma_bar` is the egf product of e^(s t) and the forest
series minus 1, on the same buckets.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import comb, factorial, gcd, lcm
from operator import add

from . import egf
from .arrangement import closed_subgroups
from .errors import AbelianOnly, NonInvertibleConstantTerm

ZERO = Fraction(0)


class _Coefficients(Mapping):
    """Read-only view {exponents: Fraction} of a series' coefficients."""

    __slots__ = ("_series",)

    def __init__(self, series):
        self._series = series

    def __len__(self):
        return self._series._len

    def __iter__(self):
        return chain.from_iterable(self._series._terms)

    def __contains__(self, exps):
        return any(exps in bucket for bucket in self._series._terms)

    def __getitem__(self, exps):
        for bucket in self._series._terms:
            c = bucket.get(exps)
            if c is not None:
                return Fraction(c, self._series._den)
        raise KeyError(exps)

    def __repr__(self):
        return repr(dict(self.items()))


class MultiSeries:
    """Immutable-by-convention truncated series with exact coefficients.

    ``_terms[d]`` maps each exponent vector of t-degree d (d <= trunc) to a
    nonzero integer numerator, and ``_den`` is the positive denominator they
    share.  The gcd of ``_den`` and all numerators is 1, so the form is
    canonical: equal series have equal fields.  ``coeffs`` is the public read
    API, a read-only mapping from exponent vectors to Fractions.

    ``MultiSeries(vars, trunc, {exps: rational})`` builds a series from
    rational coefficients; the operators pass ``_terms`` and ``_den`` instead.
    Either way the result is reduced here, in the list it is given, which
    the new series then owns.  The operators may share bucket dicts between
    series, so no bucket dict is ever changed after it is built.
    """

    __slots__ = ("vars", "trunc", "_s_index", "_terms", "_den", "_len")

    def __init__(self, vars, trunc, coeffs=None, *, _terms=None, _den=1):
        self.vars = tuple(vars)
        self.trunc = trunc
        self._s_index = self.vars.index("s") if "s" in self.vars else None
        if _terms is None:
            fracs = {tuple(e): Fraction(c) for e, c in (coeffs or {}).items()}
            _den = lcm(*(c.denominator for c in fracs.values()))
            _terms = [{} for _ in range(trunc + 1)]
            for e, c in fracs.items():
                degree = self.t_degree(e)
                if degree <= trunc:  # terms past the bound are dropped
                    _terms[degree][e] = c.numerator * (_den // c.denominator)
        g = _den
        for d, bucket in enumerate(_terms):
            if 0 in bucket.values():
                _terms[d] = bucket = {e: c for e, c in bucket.items() if c}
            if g != 1 and bucket:
                g = gcd(g, *bucket.values())
        if g != 1:
            _terms = [{e: c // g for e, c in bucket.items()} for bucket in _terms]
            _den //= g
        self._terms = _terms
        self._den = _den
        self._len = sum(map(len, _terms))

    @property
    def coeffs(self):
        """Read-only mapping {exponents: Fraction}; values built on access."""
        return _Coefficients(self)

    def t_degree(self, exps):
        if self._s_index is None:
            return sum(exps)
        return sum(exps) - exps[self._s_index]

    def _make(self, terms, den, vars=None):
        if vars is None:
            vars = self.vars
        return MultiSeries(vars, self.trunc, _terms=terms, _den=den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, vars, trunc, value=1):
        zero = tuple(0 for _ in vars)
        return cls(vars, trunc, {zero: Fraction(value)})

    @classmethod
    def monomial(cls, vars, trunc, var, power=1, coeff=1):
        exps = [0] * len(vars)
        exps[tuple(vars).index(var)] = power
        return cls(vars, trunc, {tuple(exps): Fraction(coeff)})

    # -- basics ---------------------------------------------------------------

    def _same(self, other):
        if self.vars != other.vars or self.trunc != other.trunc:
            raise ValueError("series contexts differ")

    def __eq__(self, other):
        return (
            isinstance(other, MultiSeries)
            and self.vars == other.vars
            and self.trunc == other.trunc
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        items = frozenset(chain.from_iterable(b.items() for b in self._terms))
        return hash((self.vars, self.trunc, self._den, items))

    def coefficient(self, **named):
        exps = [0] * len(self.vars)
        for var, e in named.items():
            exps[self.vars.index(var)] = e
        return self.coeffs.get(tuple(exps), ZERO)

    def add(self, other):
        self._same(other)
        da, db = self._den, other._den
        g = gcd(da, db)
        fa, fb = db // g, da // g
        out = []
        for a, b in zip(self._terms, other._terms):
            if fa != 1:
                a = {e: c * fa for e, c in a.items()}
            if fb != 1:
                b = {e: c * fb for e, c in b.items()}
            if a and b:
                merged = {**a, **b}
                for e in a.keys() & b.keys():
                    merged[e] = a[e] + b[e]
                a = merged
            out.append(a or b)
        return self._make(out, da * fa)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, value):
        value = Fraction(value)
        p = value.numerator
        if p == 1:  # scale(1/m) in exp and the operator loops: share the buckets
            terms = list(self._terms)
        else:
            terms = [{e: c * p for e, c in b.items()} for b in self._terms]
        return self._make(terms, self._den * value.denominator)

    def mul(self, other):
        """Product; only pairs of t-degree buckets within trunc are formed."""
        self._same(other)
        trunc = self.trunc
        out = [{} for _ in range(trunc + 1)]
        right = other._terms
        for d1, b1 in enumerate(self._terms):
            if not b1:
                continue
            for d2 in range(trunc - d1 + 1):
                b2 = right[d2]
                if not b2:
                    continue
                acc = out[d1 + d2]
                get = acc.get
                pairs = b2.items()
                for e1, c1 in b1.items():
                    for e2, c2 in pairs:
                        e = tuple(map(add, e1, e2))
                        acc[e] = get(e, 0) + c1 * c2
        return self._make(out, self._den * other._den)

    def exp(self):
        """exp(A) for A with no term of t-degree zero."""
        if self._terms[0]:
            raise NonInvertibleConstantTerm(
                "series exponential needs a vanishing t-degree-zero part"
            )
        result = MultiSeries.constant(self.vars, self.trunc)
        term = MultiSeries.constant(self.vars, self.trunc)
        for k in range(1, self.trunc + 1):
            term = term.mul(self).scale(Fraction(1, k))
            if not term.coeffs:
                break
            result = result.add(term)
        return result

    def inverse(self):
        """1/A when the t-degree-zero part is a nonzero constant."""
        zero_exp = tuple(0 for _ in self.vars)
        degree_zero = self._terms[0]
        c0 = degree_zero.get(zero_exp, 0)
        if c0 == 0 or len(degree_zero) > 1:
            raise NonInvertibleConstantTerm(
                "series inverse needs a nonzero rational constant term"
            )
        # rest = 1 - A / c, with c = c0 / den the constant term
        sign = -1 if c0 > 0 else 1
        rest = self._make(
            [{}] + [{e: sign * v for e, v in b.items()} for b in self._terms[1:]],
            abs(c0),
        )
        result = MultiSeries.constant(self.vars, self.trunc)
        term = MultiSeries.constant(self.vars, self.trunc)
        for _ in range(self.trunc):
            term = term.mul(rest)
            if not term.coeffs:
                break
            result = result.add(term)
        return result.scale(Fraction(self._den, c0))

    def derive(self, var):
        idx = self.vars.index(var)
        shifts = idx != self._s_index  # a t-variable lowers the t-degree
        out = []
        for b in self._terms[1:] if shifts else self._terms:
            nb = {}
            for e, c in b.items():
                k = e[idx]
                if k:
                    nb[e[:idx] + (k - 1,) + e[idx + 1 :]] = c * k
            out.append(nb)
        if shifts:
            out.append({})
        return self._make(out, self._den)

    def terms(self):
        """Sorted (exponents, coefficient) pairs."""
        den = self._den
        return sorted(
            (e, Fraction(c, den)) for b in self._terms for e, c in b.items()
        )

    def __repr__(self):
        return f"MultiSeries(vars={self.vars}, trunc={self.trunc}, terms={self._len})"


# -- tree series --------------------------------------------------------------------


def _variable(key, trunc):
    """The graded series of the t-variable packed as `key`."""
    out = [{}] * (trunc + 1)
    if trunc:
        out[1] = {key: 1}
    return out


def _graded_lambda(r, inner):
    """lambda_bar(r) composed with a graded series U with no degree-0 term.

    lambda_bar = L solves r L(x) = exp(r (x + L(x))) - 1 - r (x + L(x)).
    Put x = U and write a_n, b_n and e_n for n! times the degree-n parts of
    A = L(U), B = U + A and exp(r B).  The Euler operator D, the sum of
    t_i d/dt_i, multiplies the degree-n part by n and obeys the chain rule,
    so D A = D B (exp(r B) - 1) and D exp(r B) = r D B exp(r B); n! times
    their degree-(n+1) parts read

        a_(n+1) = sum over k < n of C(n, k) b_(k+1) e_(n-k),
        e_(n+1) = r * (sum over k <= n of C(n, k) b_(k+1) e_(n-k)),

    from a_0 = 0 and e_0 = 1, with b_k = a_k + u_k.  The k = n summand of
    a_(n+1) is missing because e_0 - 1 = 0; it is the one that needs
    b_(n+1), so a_(n+1) is `egf.smallest_part(b, e, n + 1)` while b_(n+1)
    is still empty.  U = t gives lambda_bar itself.
    """
    trunc = len(inner) - 1
    a = [{}] * (trunc + 1)
    b = [{}] * (trunc + 1)  # b[k] = a[k] + inner[k], filled as a[k] is
    e = [{0: 1}] + [{}] * trunc
    for n in range(trunc):
        a[n + 1] = below = egf.smallest_part(b, e, n + 1)
        b[n + 1] = egf.bucket_sum(below, inner[n + 1])
        e[n + 1] = {k: r * c for k, c in egf.bucket_sum(below, b[n + 1]).items()}
    return a


def _subgroup_lambda(order, H, inner):
    """lam_H composed with the graded series `inner`, for a proper subgroup
    H of an abelian group of the given order (see `lambda_for_subgroup`).

    lam_{e} is lambda_bar(|G|).  For H != {e}, lam_H(x) = L(2x) + x with
    L = lambda_bar([G:H]): every leaf slot doubled, plus the bare
    root-over-leaf tree.
    """
    if len(H) == 1:
        return _graded_lambda(order, inner)
    doubled = [{k: 2 * c for k, c in x.items()} for x in inner]
    return list(map(egf.bucket_sum, _graded_lambda(order // len(H), doubled), inner))


def _from_graded(vars, graded):
    """The MultiSeries of a graded series over `vars`."""
    trunc = len(graded) - 1
    base = trunc + 1
    lead = base ** (len(vars) - 1)  # the weight of the first variable
    rest = {}  # packed exponents of the other variables -> their tuple
    top = factorial(trunc)
    terms = []
    for d, bucket in enumerate(graded):
        f = top // factorial(d)
        out = {}
        for k, c in bucket.items():
            first, low = divmod(k, lead)
            tail = rest.get(low)
            if tail is None:
                digits = []
                x = low
                for _ in range(len(vars) - 1):
                    x, e = divmod(x, base)
                    digits.append(e)
                tail = rest[low] = tuple(reversed(digits))
            out[(first,) + tail] = c * f
        terms.append(out)
    return MultiSeries(vars, trunc, _terms=terms, _den=top)


def lambda_bar(r, trunc):
    """EGF of leaf-labelled rooted trees with all arities >= 2 and edge
    weight r^(arity-1) per vertex, as a series in 't'; the coefficients come
    from the integer recurrence of `_graded_lambda`."""
    return _from_graded(("t",), _graded_lambda(r, _variable(1, trunc)))


@cache
def partition_oracle(n, k, r):
    """Number of partitions of an n-set into k blocks of size >= 2, each
    block of size i weighted by r^(i-1)."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0:
        return 0
    return sum(
        comb(n - 1, j - 1) * r ** (j - 1) * partition_oracle(n - j, k - 1, r)
        for j in range(2, n + 1)
    )


def lambda_for_subgroup(inst, H, trunc):
    """Series counting trees whose internal vertices all carry the label H.

    For H != {e} unary vertices over a leaf slot are allowed, doubling every
    leaf's contribution and adding the bare root-over-leaf tree; for {e}
    they are forbidden and the arity->=2 series with r = |G| applies as is.
    """
    if not inst.group.is_abelian:
        raise AbelianOnly("tree series are only computed for abelian groups")
    order = inst.group.order
    if len(H) == order:
        raise AbelianOnly("no tree series is attached to the full group")
    return _from_graded(("t",), _subgroup_lambda(order, H, _variable(1, trunc)))


# -- the forest series -----------------------------------------------------------------


def series_variables(inst):
    """Variable tuple ('s', 't', one t-variable per proper closed subgroup)."""
    return ("s", "t") + tuple(map(subgroup_variable, closed_subgroups(inst).proper))


def subgroup_variable(K):
    return f"t{K.label()}"


def _apply_exp_derive(series, lam, var):
    """exp(lam * d/d var) applied to the series; lam must not involve var.

    `gamma_tilde` composes instead; the operator form is kept for the
    reference construction the tests compare it with."""
    result = series
    term = series
    for m in range(1, series.trunc + 1):
        term = term.derive(var).mul(lam).scale(Fraction(1, m))
        if not term.coeffs:
            break
        result = result.add(term)
    return result


def admissible_order(inst):
    """Proper closed subgroups, every strict supergroup before its subgroups."""
    cs = closed_subgroups(inst)
    return tuple(sorted(cs.proper, key=lambda K: (-len(K), K.elements)))


def gamma_tilde(inst, trunc):
    """Forest series over proper closed subgroups: no fallen leaves, no
    full-group vertices.

    The series is defined by applying to 1, for each H with every strict
    supergroup of H before it, the operator exponential of
    lam_H(t_H) * (s + sum over K strictly above H of d/dt_K); the
    derivative summands graft an H-rooted subtree onto a leaf slot of a
    K-tree.  It is computed as

        exp(s * sum over K of lam_K(T_K)),
        T_K = t_K + sum over H strictly inside K of lam_H(T_H).

    Proof.  lam_H(t_H) does not involve any t_K with K strictly above H, so
    the summands of H's exponent commute, and by Taylor's theorem
    exp(lam d/dx) f = f(x + lam) when lam does not involve x.  So H's step
    maps f to m_H * sigma_H(f), where m_H = exp(s lam_H(t_H)) and sigma_H is
    the ring map t_K -> t_K + lam_H(t_H) for every K strictly above H.
    Unrolled from acc = 1, the steps give the product over H of
    sigma_H'(m_H), where sigma_H' is the composite of the ring maps of the
    steps after H's; a ring map sends an exponential to the exponential of
    the image, so this is exp(s * sum over H of lam_H(sigma_H'(t_H))).  The
    maps after K's step that move t_K are those of the H strictly inside K,
    as a supergroup's step comes first.  Each adds lam_H(t_H) to t_K, and
    the maps after it turn t_H into sigma_H'(t_H) (those between K's step
    and H's move no t_H).  So, by induction on the size of the label,
    sigma_K'(t_K) = t_K + sum over H strictly inside K of lam_H(T_H) = T_K.
    Nothing here depends on the order of the steps beyond that rule.

    The T_K are built smallest label first, each lam_K(T_K) by
    `_graded_lambda`, and exp by `egf.exp`: every coefficient is an
    integer d! [monomial of t-degree d], with no operator and no `Fraction`.
    """
    return _from_graded(*_graded_tilde(inst, trunc))


def _graded_tilde(inst, trunc):
    """(vars, `gamma_tilde` as a graded series over vars)."""
    vars = series_variables(inst)
    base = trunc + 1
    weight = {v: base ** (len(vars) - 1 - i) for i, v in enumerate(vars)}
    total = _graded_forest_sum(inst, trunc, lambda K: weight[subgroup_variable(K)])
    return vars, egf.exp(_times_s(total, weight["s"]))


def _graded_forest_sum(inst, trunc, key):
    """The sum over K of lam_K(T_K) (see `gamma_tilde`) as a graded series,
    with t_K packed as key(K)."""
    if not inst.group.is_abelian:
        raise AbelianOnly("the forest series requires an abelian group")
    order = inst.group.order
    done = []  # (H, lam_H(T_H)) for the labels so far
    total = [{}] * (trunc + 1)
    for K in reversed(admissible_order(inst)):
        inner = _variable(key(K), trunc)
        for H, lam in done:
            if H.is_subset(K):
                inner = list(map(egf.bucket_sum, inner, lam))
        lam = _subgroup_lambda(order, K, inner)
        done.append((K, lam))
        total = list(map(egf.bucket_sum, total, lam))
    return total


def _times_s(b, s_key):
    """s * B for a graded series B, with s packed as s_key."""
    return [{k + s_key: c for k, c in x.items()} for x in b]


def series_cost(trunc, v):
    """Cost estimate of a series at t-degree <= trunc in v t-variables:
    (d + 1) * C(d + v, v) * max(d, 1) for d = trunc.

    C(d + v, v) counts the monomials of t-degree <= d in v variables, d + 1
    bounds the power of s, so their product bounds the terms of a series;
    max(d, 1) is the number of degree pairs a term of the exponential meets.
    `series` passes its own v; `count --method egf` packs every t-variable
    as t and passes v = 1, which gives (n + 1)^2 * n.  Both refuse an
    estimate above `cap_nested`.
    """
    return (trunc + 1) * comb(trunc + v, v) * max(trunc, 1)


def gamma_bar(inst, trunc):
    """Fallen leaves allowed: e^(s t) times (gamma_tilde - 1)."""
    vars, tilde = _graded_tilde(inst, trunc)
    return _from_graded(vars, _graded_bar(vars, tilde))


def _graded_bar(vars, tilde):
    """e^(s t) (tilde - 1) for a graded series over ('s', 't', t_K ...): the
    egf product with e^(s t), whose bucket k is {k (w_s + w_t): 1}, so the
    degree-d part of tilde - 1 moves to bucket d + k with weight C(d + k, k).
    """
    base = len(tilde)
    st = (base + 1) * base ** (len(vars) - 2)  # the key of s t
    out = []
    for n in range(base):
        acc = {}
        for k in range(n):  # bucket 0 of tilde - 1 is empty
            if tilde[n - k]:
                egf.product_into(acc, {k * st: 1}, tilde[n - k], comb(n, k))
        out.append(acc)
    return out


def _graded_gamma(inst, trunc, s_key):
    """(Gamma_st, y): Gamma_st = exp(s (t + sum over K of lam_K(T_K))) with t
    and every t_K packed as 1 and s as s_key (a fallen leaf is a tree of one
    leaf), and n! [t^n] y for y = 1/(2 - Gamma(1, t)) = 1 + (Gamma(1, t) - 1) y."""
    total = _graded_forest_sum(inst, trunc, lambda K: 1)
    if trunc:
        total[1] = egf.bucket_sum(total[1], {1: 1})
    gamma = egf.exp(_times_s(total, s_key))
    at_one = [sum(bucket.values()) for bucket in gamma]  # Gamma(1, t)
    y = [1]
    for m in range(1, trunc + 1):
        y.append(sum(comb(m, k) * at_one[k] * y[m - k] for k in range(1, m + 1)))
    return gamma, y


def _graded_big_g(inst, trunc):
    """G = (s phi + 1) Gamma_st - e^(s t) (see `big_g`) as a graded series,
    with t and every t_K packed as 1 and s as trunc + 1; phi = y - 1."""
    s_key = trunc + 1
    gamma, y = _graded_gamma(inst, trunc, s_key)
    g = []
    for n in range(trunc + 1):
        acc = dict(gamma[n])
        for k in range(1, n + 1):  # the degree-k part of s phi is s y_k t^k
            if gamma[n - k]:
                egf.product_into(acc, {s_key + k: y[k]}, gamma[n - k], comb(n, k))
        key = n * (s_key + 1)  # minus (s t)^n
        acc[key] = acc.get(key, 0) - 1
        g.append(acc)
    return g


def big_g(inst, trunc):
    """The full counting series in (s, t).

    Gamma(s,t) collapses every t_H to t and allows fallen leaves; the trees
    holding full-group vertices are counted by Phi(t) = 1/(2 - Gamma(1,t)) - 1
    (a chain of full-group vertices with arbitrary hanging forests), and a
    forest has at most one such tree.  So

        G = s Phi Gamma_st + e^(s t) (Gamma~_t - 1) = (s Phi + 1) Gamma_st - e^(s t),

    where Gamma~_t is `gamma_tilde` with every t_K replaced by t and
    Gamma_st = e^(s t) Gamma~_t: the two forms agree because
    e^(s t) (Gamma~_t - 1) = Gamma_st - e^(s t).

    `_graded_big_g` computes the second form on graded integers, with s^a
    t^b t_K1^c1 ... packed as a w + b + c1 + ..., w = trunc + 1: the
    substitution s -> x^w, t -> x, t_K -> x, a ring map that keeps the
    t-degree and so commutes with every sum, product and graded recurrence
    of the formula (y reads Gamma(1, t) as bucket sums, which is s = 1 for
    any w).  As b <= trunc < w, the key gives back (a, b).
    """
    return _from_graded(("s", "t"), _graded_big_g(inst, trunc))


def nested_count_via_series(inst, n):
    """n! times the t^n coefficient of the counting series at s = 1: 0 at
    n = 0, else 2 y_n - 1 for y = 1/(2 - Gamma(1, t)) of `_graded_gamma`.

    Proof.  At s = 1 the formula of `big_g` is G(1, t) = y Gamma(1, t) - e^t,
    as phi + 1 = y, and y (2 - Gamma(1, t)) = 1 gives y Gamma(1, t) = 2 y - 1.
    So G(1, t) = 2 y - 1 - e^t, whose n! [t^n] is 2 y_0 - 2 = 0 at n = 0 and
    2 y_n - 1 above.  s is packed as 0, the ring map s -> 1."""
    return 2 * _graded_gamma(inst, n, 0)[1][n] - 1 if n else 0


def _printed_series(inst, degree):
    """{name: (vars, graded series)} that `series` prints."""
    vars, tilde = _graded_tilde(inst, degree)
    return {
        "gamma_tilde": (vars, tilde),
        "gamma_bar": (vars, _graded_bar(vars, tilde)),
        "g": (("s", "t"), _graded_big_g(inst, degree)),
    }


def dumps_series(graded_by_name):
    """json.dumps({name: series_to_json(series)}, sort_keys=True, indent=2)
    and a newline (tests/oracles), for a nonempty {name: (vars, graded
    series)} over ('s', 't', t_K ...), written from the buckets as
    one list of pieces, as json.dumps indents only in pure Python.

    Terms go in the order of their packed keys, which is the order of their
    exponent tuples: a key is s L + r with L = base^(v-1) and r < L holding
    the other exponents as digits, each at most the t-degree and so below
    the base; k < k' iff s < s', or s = s' and r < r', and positional
    notation orders r as its digit tuple.  A numerator c in bucket d is
    written as str(Fraction(c, d!)) writes it, and zero terms are left out.
    Names and tH keys are quoted by the function json.dumps uses for them.
    """
    pieces = ["{"]
    for name in sorted(graded_by_name):
        vars, graded = graded_by_name[name]
        base = len(graded)
        lead = base ** (len(vars) - 1)  # the weight of s, then of t
        coeff = {}
        for d, bucket in enumerate(graded):
            f = factorial(d)
            for k, c in bucket.items():
                if c:
                    g = gcd(c, f)
                    coeff[k] = f"{c // g}" if g == f else f"{c // g}/{f // g}"
        # (quoted tH key, its variable's weight) in key order
        keys = sorted(
            (encode_basestring_ascii(v[1:]), lead // base ** (i + 2))
            for i, v in enumerate(vars[2:])
        )
        tH_text = {}  # many terms share their t_K exponents
        head = "\n  " if len(pieces) == 1 else ",\n  "
        pieces.append(f'{head}{encode_basestring_ascii(name)}: {{\n    "terms": [')
        sep = "\n"
        for k in sorted(coeff):
            s, low = divmod(k, lead)
            t, low = divmod(low, lead // base)
            text = tH_text.get(low)
            if text is None:
                inner = ",\n".join(
                    f"          {key}: {e}" for key, w in keys if (e := low // w % base)
                )
                text = tH_text[low] = f"{{\n{inner}\n        }}" if inner else "{}"
            pieces.append(
                f'{sep}      {{\n        "coeff": "{coeff[k]}",\n'
                f'        "s": {s},\n        "t": {t},\n        "tH": {text}\n      }}'
            )
            sep = ",\n"
        tail = "\n    ]" if coeff else "]"
        pieces.append(f'{tail},\n    "truncation": {base - 1}\n  }}')
    pieces.append("\n}\n")
    return "".join(pieces)
