"""Sparse multivariate polynomials over arbitrary-precision integers.

A polynomial in ``arity`` variables x0..x{arity-1} is a map from exponent
tuples to nonzero integer coefficients.  The representation is canonical:
no zero coefficients are stored, every exponent tuple has length ``arity``,
and all entries are non-negative.  Monomials are ordered graded
lexicographically (total degree first, then the exponent tuple itself),
which makes leading terms well defined and division deterministic.

The zero polynomial has no terms; its degree is the sentinel ``None``,
never a fake numeric value.

Coefficient arithmetic is exact throughout.  :func:`mul` multiplies dense
operands by Kronecker substitution: each is packed into one int, with the
coefficient of x^e at bit w * slot(e), the two ints are multiplied once,
and the product is read back slot by slot.  The slot width w holds
min(#p, #q) * max|p| * max|q| plus a sign bit.  The packed path runs when
16 + #p + #q + slots <= #p * #q, and the remaining products are convolved
term by term.

The gcd here is the gcd in Z[x0..xN]: the result is primitive (integer
content 1) with positive leading coefficient, so it is unique and the
integer part of a common divisor must be tracked separately via
:func:`content`.

:func:`gcd_multivar` splits off the common monomial factor.  Two forms
then lose a variable: setting x_v = 1, at the first variable either
involves, keeps both degrees, as x_v divides neither, and the gcd of the
results homogenises back to theirs.  The rest is a primitive
pseudo-remainder sequence in the last variable x_k that either operand
involves, over coefficients in the other variables (ints once x_k is the
only one).  It divides every remainder by its content: the integer content
times the gcd of its coefficients, found by recursion on fewer variables.
The last nonzero remainder, times the gcd of the two operands' contents,
is the gcd; it is checked by exact division of both inputs.

Two forms without a common monomial factor first pass a coprimality screen
(Brown, J. ACM 1971).  Take a variable x_k whose pure power x_k^d has a
coefficient prime to P = ffield.WORD_PRIME (2^61 - 1), in one operand f
of degree d, and fix every other variable at a residue mod P.  If the two
univariate images in x_k are coprime, so are the forms: a nonconstant
common form g divides f, so its x_k^(deg g) coefficient divides that of
x_k^d and is prime to P too; g's image then keeps degree deg g >= 1 and
divides both images.  Otherwise the exact path runs unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import ffield

Exponent = Tuple[int, ...]
TermMap = Dict[Exponent, int]


class ArityMismatch(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class BigPoly:
    """Immutable-by-convention sparse polynomial.

    ``terms`` maps exponent tuples to nonzero int coefficients.  Do not
    mutate it after construction; all operations return fresh objects.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: TermMap):
        if arity < 1:
            raise ValueError("arity must be >= 1, got %r" % (arity,))
        clean: TermMap = {}
        for exps, coeff in terms.items():
            if len(exps) != arity:
                raise ArityMismatch(
                    "exponent tuple %r does not match arity %d" % (exps, arity))
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in %r" % (exps,))
            if coeff != 0:
                clean[exps] = coeff
        self.arity = arity
        self.terms = clean

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "BigPoly") -> "BigPoly":
        return add(self, other)

    def __sub__(self, other: "BigPoly") -> "BigPoly":
        return add(self, neg(other))

    def __mul__(self, other: "BigPoly") -> "BigPoly":
        return mul(self, other)

    def __neg__(self) -> "BigPoly":
        return neg(self)

    def __repr__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]),
                       reverse=True)
        body = ", ".join("%r: %d" % (e, c) for e, c in items[:8])
        if len(items) > 8:
            body += ", ..."
        return "BigPoly(arity=%d, {%s})" % (self.arity, body)


def _trusted(arity: int, terms: TermMap) -> BigPoly:
    """A BigPoly over terms that are canonical already, skipping the
    checks of BigPoly.__init__."""
    result = BigPoly.__new__(BigPoly)
    result.arity = arity
    result.terms = terms
    return result


def zero(arity: int) -> BigPoly:
    return BigPoly(arity, {})


def const(arity: int, value: int) -> BigPoly:
    return BigPoly(arity, {(0,) * arity: value})


def variable(arity: int, index: int) -> BigPoly:
    if not 0 <= index < arity:
        raise ValueError("variable index %d out of range for arity %d"
                         % (index, arity))
    exps = tuple(1 if i == index else 0 for i in range(arity))
    return BigPoly(arity, {exps: 1})


def monomial(arity: int, exps: Sequence[int], coeff: int = 1) -> BigPoly:
    return BigPoly(arity, {tuple(exps): coeff})


def _grlex_key(exps: Exponent) -> Tuple[int, Exponent]:
    return (sum(exps), exps)


def _check_arity(p: BigPoly, q: BigPoly) -> None:
    if p.arity != q.arity:
        raise ArityMismatch("arity %d vs %d" % (p.arity, q.arity))


def add(p: BigPoly, q: BigPoly) -> BigPoly:
    """Exact sum."""
    _check_arity(p, q)
    out = dict(p.terms)
    for exps, coeff in q.terms.items():
        acc = out.get(exps, 0) + coeff
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return _trusted(p.arity, out)


def neg(p: BigPoly) -> BigPoly:
    return _trusted(p.arity, {e: -c for e, c in p.terms.items()})


def scale(p: BigPoly, c: int) -> BigPoly:
    if c == 0:
        return zero(p.arity)
    return _trusted(p.arity, {e: c * v for e, v in p.terms.items()})


def mul(p: BigPoly, q: BigPoly) -> BigPoly:
    """Exact product.

    mul packs each operand into one int by Kronecker substitution, when
    that costs less than the convolution, which takes each pair of terms
    once.  Packing reads each term and each slot of the product once,
    after a fixed cost of about 16 pairs (_PACK_COST), so the packed path
    runs when 16 + #p + #q + slots <= #p * #q.  Dense products are packed,
    and small products, one-term operands and sparse products of high
    degree are convolved, which keeps them sparse.

    Packing: variable i of the product spans B_i exponents, from the sum
    of the operands' least exponents up; two forms keep all but the last
    variable, which the total degree restores.  The slot of x^e is
    sum_i (e_i - low_i) * B_0 ... B_{i-1}, so slots = B_0 ... B_k, and an
    operand packs into the int with each coefficient at bit w * slot.  A
    product coefficient sums at most min(#p, #q) products of two
    coefficients, so the slot width w holds min(#p, #q) * max|p| * max|q|
    plus a sign bit, in whole bytes.  The product of the two ints is read
    back as signed w-bit slots; a slot read as negative borrowed one from
    the slot above, which carries it back.
    """
    _check_arity(p, q)
    packed = _mul_packed(p, q)
    if packed is not None:
        return packed
    out: TermMap = {}
    # the smaller support in the outer loop
    if len(p.terms) > len(q.terms):
        p, q = q, p
    qitems = list(q.terms.items())
    for pe, pc in p.terms.items():
        for qe, qc in qitems:
            key = tuple(a + b for a, b in zip(pe, qe))
            acc = out.get(key, 0) + pc * qc
            if acc:
                out[key] = acc
            else:
                del out[key]
    return _trusted(p.arity, out)


# The fixed cost of a packed product, in pairs of terms convolved: about
# 25 us against 1.5 us a pair, fitted to every mul call of the perfbench
# workloads (2-core Xeon, Python 3.11); rules with 8 to 24 here time alike.
_PACK_COST = 16


def _mul_packed(p: BigPoly, q: BigPoly) -> Optional[BigPoly]:
    """p * q packed as in :func:`mul`, or None when
    _PACK_COST + #p + #q + slots exceeds #p * #q."""
    pairs, terms = len(p.terms) * len(q.terms), len(p.terms) + len(q.terms)
    # the packed product has at least #p + #q - 1 slots
    if _PACK_COST + terms + terms - 1 > pairs:
        return None
    kept = p.arity
    total = 0
    degs_p, degs_q = set(map(sum, p.terms)), set(map(sum, q.terms))
    if len(degs_p) == len(degs_q) == 1:
        kept -= 1
        total = degs_p.pop() + degs_q.pop()
    cols_p, cols_q = list(zip(*p.terms))[:kept], list(zip(*q.terms))[:kept]
    spans = [max(a) - min(a) + max(b) - min(b) + 1
             for a, b in zip(cols_p, cols_q)]
    slots = math.prod(spans)
    if _PACK_COST + terms + slots > pairs:
        return None
    lows_p, lows_q = list(map(min, cols_p)), list(map(min, cols_q))
    bound = (min(len(p.terms), len(q.terms)) * max(map(abs, p.terms.values()))
             * max(map(abs, q.terms.values())))
    width = (bound.bit_length() + 8) // 8

    def pack(f: BigPoly, cols: List[Tuple[int, ...]], lows: List[int]) -> int:
        at = [0] * len(f.terms)
        stride = width
        for col, low, span in zip(cols, lows, spans):
            at = [a + (e - low) * stride for a, e in zip(at, col)]
            stride *= span
        pos, neg = bytearray(max(at) + width), bytearray(max(at) + width)
        for a, c in zip(at, f.terms.values()):
            if c > 0:
                pos[a:a + width] = c.to_bytes(width, "little")
            else:
                neg[a:a + width] = (-c).to_bytes(width, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    raw = (pack(p, cols_p, lows_p) * pack(q, cols_q, lows_q)).to_bytes(
        width * slots, "little", signed=True)
    reads = [int.from_bytes(raw[at:at + width], "little", signed=True)
             for at in range(0, width * slots, width)]
    # the exponents of the slots in order, x0 fastest
    grid: List[Exponent] = [()]
    for low, span in zip(map(int.__add__, lows_p, lows_q), spans):
        grid = [g + (e,) for e in range(low, low + span) for g in grid]
    if kept < p.arity:
        grid = [g + (total - sum(g),) for g in grid]
    # a negative read borrowed one from the slot above
    return _trusted(p.arity, {e: c for e, s, below
                              in zip(grid, reads, [0] + reads)
                              if (c := s + (below < 0))})


def eval_int(p: BigPoly, point: Sequence[int]) -> int:
    """Exact value of p at an integer point."""
    if len(point) != p.arity:
        raise ArityMismatch("point length %d vs arity %d"
                            % (len(point), p.arity))
    # cache powers per variable; orbit coordinates can be huge, so avoid
    # recomputing the same power twice
    tables: List[Dict[int, int]] = [{0: 1} for _ in range(p.arity)]

    def power(i: int, e: int) -> int:
        tab = tables[i]
        if e not in tab:
            tab[e] = point[i] ** e
        return tab[e]

    total = 0
    for exps, coeff in p.terms.items():
        val = coeff
        for i, e in enumerate(exps):
            if e:
                val *= power(i, e)
        total += val
    return total


def degree(p: BigPoly) -> Optional[int]:
    """Total degree; None for the zero polynomial."""
    if not p.terms:
        return None
    return max(sum(e) for e in p.terms)


def is_homogeneous(p: BigPoly) -> Tuple[bool, Optional[int]]:
    """(True, d) when every term has total degree d; zero is vacuously
    homogeneous with sentinel degree None."""
    if not p.terms:
        return True, None
    degs = {sum(e) for e in p.terms}
    if len(degs) == 1:
        return True, degs.pop()
    return False, None


def compose(ps: Sequence[BigPoly],
            subst: Sequence[BigPoly]) -> List[BigPoly]:
    """Substitute subst[i] for x_i in every p of ps, for a nonempty subst
    of one arity, through one table of products keyed by exponent tuple: 1
    for the constant monomial and subst[i] for x_i, and for any other x^e
    one mul, of the entry of e with its first nonzero exponent lowered by
    1 times that variable's subst entry.  Forms subst[i] of one degree d
    take a form p to a form of degree deg(p) * d."""
    arities = sorted({s.arity for s in subst})
    if len(arities) != 1 or any(p.arity != len(subst) for p in ps):
        raise ArityMismatch("substitution of %d entries of arities %s into "
                            "arities %s" % (len(subst), arities,
                                            sorted({p.arity for p in ps})))
    out_arity = arities[0]
    table: Dict[Exponent, BigPoly] = {(0,) * len(subst): const(out_arity, 1)}
    for i, s in enumerate(subst):
        table[tuple(int(j == i) for j in range(len(subst)))] = s
    out = []
    for p in ps:
        acc: TermMap = {}
        for exps, coeff in p.terms.items():
            m = [0] * len(subst)  # raised to x^exps, the last variable first
            for i in reversed(range(len(subst))):
                for _ in range(exps[i]):
                    low = tuple(m)
                    m[i] += 1
                    if tuple(m) not in table:
                        table[tuple(m)] = mul(table[low], subst[i])
            for e, c in table[exps].terms.items():
                acc[e] = acc.get(e, 0) + coeff * c
        out.append(_trusted(out_arity, {e: c for e, c in acc.items() if c}))
    return out


def content(p: BigPoly) -> int:
    """Non-negative gcd of all coefficients; 0 for the zero polynomial."""
    return math.gcd(*p.terms.values())


def leading_term(p: BigPoly) -> Tuple[Exponent, int]:
    """Graded-lex maximal term of a nonzero polynomial."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading term")
    exps = max(p.terms, key=_grlex_key)
    return exps, p.terms[exps]


def div_exact(p: BigPoly, d: BigPoly) -> Optional[BigPoly]:
    """Quotient p/d when d divides p exactly over the integers, else None."""
    _check_arity(p, d)
    if not d.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p.terms:
        return zero(p.arity)
    de, dc = leading_term(d)
    rem = dict(p.terms)
    quo: TermMap = {}
    while rem:
        re = max(rem, key=_grlex_key)
        rc = rem[re]
        qe = tuple(a - b for a, b in zip(re, de))
        if any(e < 0 for e in qe) or rc % dc != 0:
            return None
        qc = rc // dc
        quo[qe] = quo.get(qe, 0) + qc
        for ee, cc in d.terms.items():
            key = tuple(a + b for a, b in zip(qe, ee))
            acc = rem.get(key, 0) - qc * cc
            if acc:
                rem[key] = acc
            else:
                rem.pop(key, None)
    return BigPoly(p.arity, quo)


def _min_exponents(p: BigPoly) -> Exponent:
    its = iter(p.terms)
    mins = list(next(its))
    for exps in its:
        for i, e in enumerate(exps):
            if e < mins[i]:
                mins[i] = e
    return tuple(mins)


def _shift_down(p: BigPoly, shift: Exponent) -> BigPoly:
    if not any(shift):
        return p
    return _trusted(p.arity, {tuple(a - b for a, b in zip(e, shift)): c
                              for e, c in p.terms.items()})


def _normalize_sign(p: BigPoly) -> BigPoly:
    if p.terms and leading_term(p)[1] < 0:
        return neg(p)
    return p


def primitive_part(p: BigPoly) -> BigPoly:
    """p divided by its content, sign-normalized; zero stays zero."""
    c = content(p)
    if c == 0:
        return p
    return _normalize_sign(_trusted(p.arity, {e: v // c
                                              for e, v in p.terms.items()}))


# p as a polynomial in x_k: {exponent of x_k: nonzero coefficient free of
# x_k}, a BigPoly, or an int once x_k is the only variable
Univariate = Dict[int, Union[BigPoly, int]]


def _as_univariate(p: BigPoly, var: int) -> Univariate:
    """View p as a polynomial in x_var with BigPoly coefficients."""
    out: Dict[int, TermMap] = {}
    for exps, coeff in p.terms.items():
        e = exps[var]
        rest = exps[:var] + (0,) + exps[var + 1:]
        out.setdefault(e, {})[rest] = coeff
    return {e: _trusted(p.arity, tm) for e, tm in out.items()}


def _primitive_wrt(u: Univariate) -> Tuple[Union[BigPoly, int], Univariate]:
    """(content, primitive part) of a nonzero u.

    The content is the integer content times the primitive gcd of the
    coefficients, so the primitive part has content 1 in Z[x0..xN].
    """
    if isinstance(next(iter(u.values())), int):
        ic = math.gcd(*u.values())
        return ic, {e: c // ic for e, c in u.items()}
    g: Optional[BigPoly] = None
    ic = 0
    for c in u.values():
        ic = math.gcd(ic, content(c))
        if g is None:
            g = primitive_part(c)
        elif degree(g) > 0:
            g = gcd_multivar(g, c)
    cont = scale(g, ic)
    prim = {}
    for e, c in u.items():
        d = div_exact(c, cont)
        if d is None:
            raise AssertionError("content division failed")
        prim[e] = d
    return cont, prim


def _pseudo_rem(a: Univariate, b: Univariate) -> Univariate:
    """Pseudo-remainder of a by b in x_k, over BigPoly or int coefficients.

    Each step scales the remainder by lc(b) and subtracts lc(r) x^k b; the
    top terms cancel by construction, so the step pops r's top term and
    only subtracts the rest of b.
    """
    db = max(b)
    lcb = b[db]
    tail = [(e - db, -c) for e, c in b.items() if e != db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lcr = r.pop(dr)
        r = {e: c * lcb for e, c in r.items()}
        for shift, c in tail:
            k = dr + shift
            t = c * lcr
            s = r[k] + t if k in r else t
            if s:
                r[k] = s
            else:
                del r[k]
    return r


def _gcd_exact(p: BigPoly, q: BigPoly) -> BigPoly:
    """gcd of two non-constant polynomials, up to sign, by a primitive
    pseudo-remainder sequence in the last variable either involves; over
    the integers, when it is the only one, the contents' gcd is a unit."""
    involved = {i for f in (p, q) for exps in f.terms
                for i, e in enumerate(exps) if e}
    var = max(involved)
    if len(involved) == 1:
        us = [{exps[var]: c for exps, c in f.terms.items()} for f in (p, q)]
    else:
        us = [_as_univariate(f, var) for f in (p, q)]
    (cont_p, a), (cont_q, b) = (_primitive_wrt(u) for u in us)
    if max(a) < max(b):
        a, b = b, a
    # once b is free of x_var it is a unit, being primitive: the primitive
    # parts are coprime
    while max(b) > 0:
        r = _pseudo_rem(a, b)
        if not r:
            break
        a, b = b, _primitive_wrt(r)[1]
    if len(involved) == 1:
        zeros = (0,) * p.arity
        return _trusted(p.arity, {zeros[:var] + (e,) + zeros[var + 1:]: c
                                  for e, c in b.items()})
    terms = {exps[:var] + (e,) + exps[var + 1:]: coeff
             for e, c in b.items() for exps, coeff in c.terms.items()}
    return mul(gcd_multivar(cont_p, cont_q), _trusted(p.arity, terms))


# the base of the screen's residues x_j -> B^(j+1) mod P
_SCREEN_BASE = 0x9E3779B97F4A7C15


def _coprime_images(p: BigPoly, q: BigPoly) -> bool:
    """True when one image mod P proves the forms p and q coprime.

    x_k is the last variable whose pure power has a coefficient prime to
    P in p or in q, and x_j -> B^(j+1) for j != k.  A common form would
    keep its degree there, so coprime images prove coprime forms.
    """
    n, P = p.arity, ffield.WORD_PRIME
    degs = [sum(next(iter(f.terms))) for f in (p, q)]
    point = [pow(_SCREEN_BASE, j + 1, P) for j in range(n)]
    for k in reversed(range(n)):
        if any(f.terms.get((0,) * k + (d,) + (0,) * (n - k - 1), 0) % P
               for f, d in zip((p, q), degs)):
            images = [ffield.term_image(f.terms, point, k, P) for f in (p, q)]
            return len(ffield.uni_gcd(*images, P)) == 1
    return False


def gcd_multivar(p: BigPoly, q: BigPoly) -> BigPoly:
    """Primitive gcd in Z[x0..xN], leading coefficient positive.

    Zero, equal and single-term operands are dispatched directly.
    Otherwise the shared monomial factor is split off.  Two forms whose
    images mod a prime are coprime (:func:`_coprime_images`) share only
    that monomial.  Other forms are dehomogenised at the first variable
    either involves, and the rest comes from the exact primitive-PRS
    recursion.  The result is verified by exact division of both inputs.
    """
    _check_arity(p, q)
    if not p.terms:
        return primitive_part(q)
    if not q.terms:
        return primitive_part(p)
    if p.terms == q.terms or p.terms == neg(q).terms:
        return primitive_part(p)

    shift_p, shift_q = _min_exponents(p), _min_exponents(q)
    shift = tuple(min(a, b) for a, b in zip(shift_p, shift_q))
    ps, qs = _shift_down(p, shift_p), _shift_down(q, shift_q)
    mono = monomial(p.arity, shift, 1)
    if degree(ps) == 0 or degree(qs) == 0:
        # a monomial operand shares only the monomial factor
        return mono

    if is_homogeneous(ps)[0] and is_homogeneous(qs)[0]:
        if _coprime_images(ps, qs):
            return mono
        # x_v divides neither form, so setting x_v = 1 keeps both degrees
        # and is multiplicative: the gcd homogenises back at its own degree
        v = min(i for f in (ps, qs) for exps in f.terms
                for i, e in enumerate(exps) if e)
        g = _gcd_exact(*(_trusted(p.arity, {e[:v] + (0,) + e[v + 1:]: c
                                            for e, c in f.terms.items()})
                         for f in (ps, qs)))
        d = degree(g)
        g = _trusted(p.arity, {e[:v] + (d - sum(e),) + e[v + 1:]: c
                               for e, c in g.terms.items()})
    else:
        g = _gcd_exact(ps, qs)
    g = _normalize_sign(mul(mono, g))
    if div_exact(p, g) is None or div_exact(q, g) is None:
        raise AssertionError("gcd candidate fails exact division")
    return g
