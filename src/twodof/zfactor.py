"""Factorisation of integer polynomials into irreducibles over Z.

A polynomial here is a plain list of ``int`` coefficients in ascending
order of power with no trailing zeros (the zero polynomial is ``[]``), the
layout of the integer kernel of :mod:`twodof.polyalg`, whose product,
exact quotient and primitive gcd this module shares.  Every step is exact
integer or modular arithmetic; nothing is approximate.  :func:`factor_list`
runs the classical Zassenhaus pipeline (Zassenhaus 1969; von zur Gathen &
Gerhard, *Modern Computer Algebra*, 3rd ed., ch. 14-16; Knuth, TAOCP
vol. 2, §4.6.2):

1. the primitive part is split square-free by Yun's algorithm
   (MCA Alg. 14.21) over a primitive remainder sequence;
2. each square-free part ``f`` of degree ``n`` is reduced modulo the
   smallest odd prime ``p`` that divides neither its leading coefficient
   nor, in effect, its discriminant (``f mod p`` stays square-free);
3. ``f mod p`` is split by distinct-degree, then equal-degree
   factorisation (Cantor & Zassenhaus 1981; MCA Alg. 14.3, 14.8), with a
   fixed-seed local generator, so every run repeats;
4. the factors are Hensel-lifted quadratically (MCA Alg. 15.10, 15.17)
   until ``p**l > 2 B``, where ``B = sqrt(n+1) 2**n |f|_inf |lc f|``
   bounds (Mignotte) every coefficient of ``lc(f) g`` for a factor ``g``
   of ``f``;
5. subsets of the lifted factors are recombined in order of increasing
   size, and a candidate is kept only if it divides exactly over Z.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from twodof.polyalg import _exact_quo, _gcd, _mul, _primitive, _trim

__all__ = ["factor_list"]


def factor_list(f: list[int]) -> list[tuple[list[int], int]]:
    """Irreducible factors of ``f`` over Z with their multiplicities.

    Each factor is primitive with a positive leading coefficient; the
    content and sign of ``f`` are dropped, and a constant has no factors.
    The order is sympy's ``factor_list`` order: by degree, then
    multiplicity, then coefficients from the leading one down.
    """
    if len(f) <= 1:
        return []
    rng = random.Random(0)
    factors = [
        (g, mult)
        for part, mult in _square_free(_primitive(f))
        for g in (_zassenhaus(part, rng) if len(part) > 2 else [part])
    ]
    return sorted(factors, key=lambda item: (len(item[0]), item[1], item[0][::-1]))


# ---------------------------------------------------------------------------
# Z[x]
# ---------------------------------------------------------------------------


def _derivative(a: list[int]) -> list[int]:
    return [k * a[k] for k in range(1, len(a))]


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + (b[k] if k < len(b) else 0) for k, x in enumerate(a)])


def _sub(a: list[int], b: list[int]) -> list[int]:
    return _add(a, [-x for x in b])


def _square_free(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun: ``[(a_i, i)]`` with ``f = prod a_i**i``, each ``a_i`` primitive,
    square-free and nonconstant, for a primitive ``f`` with ``lc f > 0``.

    ``b`` and ``c`` are always divided by the same polynomial, so their
    ratio stays ``b · sum_{j>=i} j a_j'/a_j`` whatever scalar each gcd
    carries; every quotient is exact over Z by Gauss's lemma.
    """
    df = _derivative(f)
    _, b, c = _gcd(f, df)
    out = []
    mult = 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a, b, c = _gcd(b, d)
        if len(a) > 1:
            out.append((a, mult))
        mult += 1
    return out


# ---------------------------------------------------------------------------
# (Z/m)[x], coefficients in [0, m)
# ---------------------------------------------------------------------------


def _mod(a: list[int], m: int) -> list[int]:
    return _trim([x % m for x in a])


def _mmul(a: list[int], b: list[int], m: int) -> list[int]:
    return _mod(_mul(a, b), m)


def _mprod(start: list[int], factors: list[list[int]], m: int) -> list[int]:
    for u in factors:
        start = _mmul(start, u, m)
    return start


def _mdivmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder modulo ``m``; ``lc b`` must be a unit mod ``m``."""
    inv, db = pow(b[-1], -1, m), len(b) - 1
    r = [x % m for x in a]
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] * inv % m
        if c:
            for j, y in enumerate(b):
                r[k + j] = (r[k + j] - c * y) % m
    return _trim(q), _trim(r[:db])


def _monic(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [x * inv % m for x in a]


def _mgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd modulo the prime ``p``; ``a`` nonzero."""
    while b:
        a, b = b, _mdivmod(a, b, p)[1]
    return _monic(a, p)


def _mgcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """``s, t`` with ``s a + t b = 1`` mod ``p``, ``deg s < deg b``,
    ``deg t < deg a``, for ``a`` and ``b`` coprime mod ``p``."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return [x * inv % p for x in s0], [x * inv % p for x in t0]


def _mpowmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """``a**e`` modulo ``f`` and ``p``."""
    out, a = [1], _mdivmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _mdivmod(_mmul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _mdivmod(_mmul(a, a, p), f, p)[1]
    return out


# ---------------------------------------------------------------------------
# factoring modulo p (Cantor-Zassenhaus)
# ---------------------------------------------------------------------------


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """``[(g, d)]``: ``g`` is the product of the degree-``d`` irreducible
    factors of the monic square-free ``f`` mod ``p``."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _mpowmod(h, p, f, p)  # x**(p**d) mod f
        g = _mgcd(f, _mod(_sub(h, [0, 1]), p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _mdivmod(f, g, p)[0]
            h = _mdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors of ``g``, a product of distinct
    degree-``d`` irreducibles mod the odd prime ``p``."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = _mgcd(g, a, p)
        if len(b) == 1:
            b = _mgcd(g, _mod(_sub(_mpowmod(a, (p**d - 1) // 2, g, p), [1]), p), p)
        if 1 < len(b) < len(g):
            return _equal_degree(b, d, p, rng) + _equal_degree(_mdivmod(g, b, p)[0], d, p, rng)


def _good_prime(f: list[int]) -> int:
    """The smallest odd prime not dividing ``lc f`` that keeps ``f`` square-free."""
    df = _derivative(f)
    p = 3
    while f[-1] % p == 0 or len(_mgcd(_mod(f, p), _mod(df, p), p)) > 1:
        p += 2
        while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            p += 2
    return p


# ---------------------------------------------------------------------------
# Hensel lifting and recombination
# ---------------------------------------------------------------------------


def _hensel_step(m: int, f: list[int], g: list[int], h: list[int], s: list[int], t: list[int]):
    """From ``f = g h`` and ``s g + t h = 1`` mod ``m`` (``h`` monic) to the
    same identities mod ``m**2`` (MCA Alg. 15.10)."""
    mm = m * m
    e = _mod(_sub(f, _mul(g, h)), mm)
    q, r = _mdivmod(_mul(s, e), h, mm)
    g = _mod(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h = _mod(_add(h, r), mm)
    b = _mod(_sub(_add(_mul(s, g), _mul(t, h)), [1]), mm)
    c, d = _mdivmod(_mul(s, b), h, mm)
    s = _mod(_sub(s, d), mm)
    t = _mod(_sub(t, _add(_mul(t, b), _mul(c, g))), mm)
    return g, h, s, t


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, l: int) -> list[list[int]]:
    """Lift the monic factors mod ``p`` of ``f = lc(f) prod factors`` to the
    monic factors mod ``p**l`` (MCA Alg. 15.17, by halves)."""
    pl = p**l
    if len(factors) == 1:
        return [_monic(_mod(f, pl), pl)]
    k = len(factors) // 2
    g, h = _mprod([f[-1] % p], factors[:k], p), _mprod([1], factors[k:], p)
    s, t = _mgcdex(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return _hensel_lift(_mod(g, pl), factors[:k], p, l) + _hensel_lift(
        _mod(h, pl), factors[k:], p, l
    )


def _zassenhaus(f: list[int], rng: random.Random) -> list[list[int]]:
    """Irreducible factors of a primitive square-free ``f`` with ``lc f > 0``."""
    p = _good_prime(f)
    fp = _monic(_mod(f, p), p)
    modular = [u for g, d in _distinct_degree(fp, p) for u in _equal_degree(g, d, p, rng)]
    if len(modular) == 1:
        return [f]
    n = len(f) - 1
    # isqrt(n) + 1 >= sqrt(n + 1), so this is at least 2 B
    bound = 2 * (math.isqrt(n) + 1) * 2**n * max(map(abs, f)) * f[-1]
    l = 1
    while p**l <= bound:
        l += 1
    pl = p**l
    lifted = _hensel_lift(f, modular, p, l)
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = _mprod([f[-1]], [lifted[i] for i in subset], pl)
            g = _primitive([x - pl if 2 * x > pl else x for x in g])
            q = _exact_quo(f, g)
            if q is not None:
                found.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]
