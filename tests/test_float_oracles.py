"""The float parts of twodof against numpy and scipy, which serve as test
oracles only: the zero-order hold's matrix exponential against
``scipy.linalg.expm``, the roots of irreducible factors against
``np.roots``, and each complex left null direction by its residual.
Every draw comes from a seeded ``random.Random``."""

import random

import numpy as np
import scipy.linalg

from twodof.factor import _factor_roots, _left_null_direction, _zero_polynomial
from twodof.polyalg import ONE, ZERO, Poly, PolyMat
from twodof.stability import count_real_roots, irreducible_factors
from twodof.verify import _expm1


def stable_companion_block(rng):
    """[[A, b], [0, 0]] * dt for A the companion matrix of a drawn Hurwitz
    polynomial, b the last unit vector: the block ``simulate_step`` holds."""
    den, order = ONE, rng.randint(1, 6)
    while den.degree() < order:  # times s + a or s^2 + b*s + c, a, b, c > 0
        if rng.random() < 0.5:
            den = den * Poly((rng.randint(1, 30), 1))
        else:
            den = den * Poly((rng.randint(1, 900), rng.randint(1, 12), 1))
    order, dt = den.degree(), rng.choice([1e-3, 5e-3, 0.01, 0.1, 1.0])
    block = [
        [(-float(den.coeff(k)) if i == order - 1 else float(k == i + 1)) * dt for k in range(order)]
        + [dt * (i == order - 1)]
        for i in range(order)
    ]
    return block + [[0.0] * (order + 1)]


def test_expm1_matches_scipy_expm_on_stable_companion_blocks():
    # relative to exp(block) - I, which is small when dt is: the hold is
    # kept apart from I so that it keeps this accuracy
    rng = random.Random(20261019)
    for _ in range(100):
        block = stable_companion_block(rng)
        want = scipy.linalg.expm(np.array(block)) - np.eye(len(block))
        assert np.abs(np.array(_expm1(block)) - want).max() <= 1e-10 * np.abs(want).max()


def drawn_irreducible_factors(rng, count):
    """Irreducible factors of degree 2 to 8 of drawn integer polynomials."""
    found = []
    while len(found) < count:
        coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 8))] + [rng.randint(1, 9)]
        if coeffs[0] == 0:
            continue
        found += [q for q, _ in irreducible_factors(Poly(coeffs)) if q.degree() >= 2]
    return found[:count]


def test_factor_roots_match_numpy_roots_in_one_order():
    rng = random.Random(7)
    for q in drawn_irreducible_factors(rng, 400):
        roots = _factor_roots(q)
        want = list(np.roots([float(c) for c in reversed(q.coeffs)]))
        assert len(roots) == len(want) == q.degree()
        for z in roots:  # matched as multisets
            k = min(range(len(want)), key=lambda i: abs(want[i] - z))
            assert abs(want.pop(k) - z) <= 1e-6 * abs(z)
        # real roots exact in type, as many as Sturm counts; real parts
        # descending; each non-real root followed by its conjugate
        real = [z for z in roots if z.imag == 0]
        assert len(real) == count_real_roots(q)
        heads, k = [], 0
        while k < len(roots):
            heads.append(roots[k])
            if roots[k].imag:
                assert roots[k].imag > 0 and roots[k + 1] == roots[k].conjugate()
                k += 1
            k += 1
        assert [z.real for z in heads] == sorted((z.real for z in heads), reverse=True)


def descending(poly):
    return np.array([float(c) for c in reversed(poly.coeffs)] or [0.0])


def unimodular(rng, size):
    """A product of drawn elementary polynomial row operations."""
    rows = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    mat = PolyMat(rows)
    for _ in range(3):
        i, j = rng.sample(range(size), 2)
        op = [list(row) for row in rows]
        op[i][j] = Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))])
        mat = PolyMat(op) @ mat
    return mat


def test_complex_left_null_directions_have_small_residuals():
    rng = random.Random(11)
    checked = 0
    for f in drawn_irreducible_factors(rng, 40):
        for p, m in ((2, 2), (3, 2), (2, 3)):
            # n = U @ diag(1, f) @ V, padded by zeros: n(z) loses rank at f's roots
            core = [[f if i == j == 1 else ONE if i == j == 0 else ZERO for j in range(m)]
                    for i in range(p)]
            n = unimodular(rng, p) @ PolyMat(core) @ unimodular(rng, m)
            assert _zero_polynomial(n) == f.monic()
            for z in _factor_roots(f):
                if isinstance(z, complex):
                    eta = np.array(_left_null_direction(n, z))
                    cs = [[descending(n.entry(i, j)) for j in range(m)] for i in range(p)]
                    nz = np.array([[np.polyval(c, z) for c in row] for row in cs])
                    # the size of the terms summed: an entry that vanishes at
                    # the root is about |n'(z)| * |z - root| at the float z
                    terms = np.array([[np.polyval(np.abs(c), abs(z)) for c in row] for row in cs])
                    assert np.abs(eta @ nz).max() <= 1e-9 * (np.abs(eta) @ terms).max()
                    checked += 1
    assert checked > 100
