import random
from fractions import Fraction

import pytest

import twodof.factor
from twodof.cli import parse_matrix
from twodof.factor import (
    RightMFD,
    _hermite_certificate,
    column_reduce,
    left_coprime_mfd,
    poly_row_diophantine,
    right_coprime_mfd,
    stable_left_mfd,
    stable_mfd,
    zeros_and_poles,
)
from twodof.polyalg import ONE, S, ZERO, Poly, PolyMat, RatFn, RatMat, polymat_det, vstack
from twodof.stability import rh_inf_verdict
from twodof.stabilize import solve_bezout


def rf(num, den=ONE):
    return RatFn(num, den)


def random_proper_plant(rng, rows, cols, max_den=3):
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            dd = rng.randint(1, max_den)
            den = ONE
            for _ in range(dd):
                den = den * Poly((Fraction(rng.randint(-3, 3)), Fraction(1)))
            nd = rng.randint(0, dd)
            num = Poly(tuple(Fraction(rng.randint(-4, 4)) for _ in range(nd + 1)))
            row.append(RatFn(num, den))
        entries.append(row)
    return RatMat(entries)


def test_right_mfd_example_plant():
    plant = RatMat([[rf((S - ONE) * (S + 2 * ONE), (S - 2 * ONE) ** 2)]])
    mfd = right_coprime_mfd(plant)
    assert mfd.n.entry(0, 0) == (S - ONE) * (S + 2 * ONE)
    assert mfd.d.entry(0, 0) == (S - 2 * ONE) ** 2
    assert _hermite_certificate(mfd.n, mfd.d) is not None
    assert mfd.plant() == plant


def test_right_mfd_cancels_common_factors():
    # entries share hidden factors; the division by the GCRD must remove them
    plant = RatMat([[rf(S + ONE, (S + ONE) * (S + 2 * ONE))]])
    mfd = right_coprime_mfd(plant)
    assert mfd.n.entry(0, 0) == ONE
    assert mfd.d.entry(0, 0) == S + 2 * ONE


def test_mfd_reconstruction_random():
    rng = random.Random(41)
    shapes = [(1, 1), (2, 2), (2, 3), (3, 2)]
    for trial in range(60):
        rows, cols = shapes[trial % len(shapes)]
        plant = random_proper_plant(rng, rows, cols)
        mfd = right_coprime_mfd(plant)
        assert mfd.plant() == plant
        assert _hermite_certificate(mfd.n, mfd.d) is not None
        left = left_coprime_mfd(plant)
        assert left.plant() == plant
        assert _hermite_certificate(left.nl.transpose(), left.dl.transpose()) is not None
        # the two fractions describe the same object: dl@n == nl@d
        assert left.dl @ mfd.n == left.nl @ mfd.d


def test_column_reduce_repairs_degree_inflation():
    # D with dependent highest-degree column coefficients
    d = PolyMat([[S ** 2, S ** 2 + ONE], [ZERO, ONE]])
    n = PolyMat([[ONE, ZERO], [ZERO, ONE]])
    n2, d2 = column_reduce(n, d)
    det = polymat_det(d2)
    assert det.monic() == polymat_det(d).monic()  # unimodular column ops
    # column degrees now add up to deg det
    assert sum(deg or 0 for deg in d2.column_degrees()) == det.degree()
    # same fraction
    assert n.to_ratmat() @ d.to_ratmat().inv() == n2.to_ratmat() @ d2.to_ratmat().inv()


def test_hermite_transform_certifies_the_fraction():
    plant = RatMat([[rf((S - ONE) * (S + 2 * ONE), (S - 2 * ONE) ** 2)]])
    mfd = right_coprime_mfd(plant)
    assert mfd.w @ vstack(mfd.d, mfd.n) == PolyMat.identity(1)
    # the certificate rides along into the analysis and the Bezout pair
    assert stable_mfd(mfd, shift=2).source.w == mfd.w
    x1, x2 = solve_bezout(mfd)
    assert x1 @ mfd.d + x2 @ mfd.n == PolyMat.identity(1)
    left = left_coprime_mfd(plant)
    assert left.dl @ mfd.n == left.nl @ mfd.d
    with pytest.raises(ValueError, match="certificate"):
        RightMFD(mfd.n, mfd.d, mfd.w.scale(2))
    with pytest.raises(ValueError, match="certificate"):
        RightMFD(mfd.n, mfd.d, PolyMat([[ZERO, ONE]]))


def test_right_mfd_equality_ignores_certificate_and_kernel():
    mfd = right_coprime_mfd(parse_matrix("1/(s+2), 1/(s+2); 1/(s-1), 3"))
    assert mfd.w is not None and mfd.kernel is not None
    bare = RightMFD(mfd.n, mfd.d)
    assert bare == mfd and hash(bare) == hash(mfd) and {bare, mfd} == {mfd}
    assert RightMFD(mfd.n, mfd.d, mfd.w) == RightMFD(mfd.n, mfd.d, kernel=mfd.kernel)
    assert RightMFD(-mfd.n, -mfd.d) != mfd and mfd != (mfd.n, mfd.d)


def test_non_coprime_fraction_without_certificate_is_refused():
    # n and d share the factor s + 1: no w with w @ [d; n] = I exists
    mfd = RightMFD(PolyMat([[S + ONE]]), PolyMat([[(S + ONE) * (S - 2 * ONE)]]))
    assert mfd.w is None
    with pytest.raises(ValueError, match="not right coprime"):
        stable_mfd(mfd)
    with pytest.raises(ValueError, match="not right coprime"):
        solve_bezout(mfd)


def test_column_reduction_carries_the_certificate():
    # d is not column reduced; stable_mfd reduces the hand-built fraction
    # and certifies the result by its own Hermite transform
    d = PolyMat([[S ** 2, S ** 2 + ONE], [ZERO, ONE]])
    n = PolyMat.identity(2)
    w = PolyMat([[ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE]])
    smfd = stable_mfd(RightMFD(n, d, w))
    source = smfd.source
    assert source.d != d and source.w is not None and source.kernel is not None
    assert source.w @ vstack(source.d, source.n) == PolyMat.identity(2)
    assert source.n.to_ratmat() @ source.d.to_ratmat().inv() == d.to_ratmat().inv()
    # this plant's Hermite fraction is not column reduced: right_coprime_mfd
    # undoes each column operation on w, and RightMFD refuses a w that fails
    plant = parse_matrix("1/(s+2), 1/(s+2); 1/(s-1), 3")
    mfd = right_coprime_mfd(plant)
    assert mfd.w @ vstack(mfd.d, mfd.n) == PolyMat.identity(2)
    assert mfd.plant() == plant


@pytest.mark.parametrize(
    "text, u, v, eliminations",
    [
        # a static gain: at k = 0 the kernel row [-3, 1] has degree 0 too, so
        # the witness is not unique and the one elimination keeps u = 1/3,
        # v = 0 (division alone would give u = 0, v = 1)
        ("3", rf(Poly.constant(Fraction(1, 3))), rf(ZERO), 1),
        # v = 0: the central design of this plant is refused
        ("(s+1)/(s-2)", rf(ONE), rf(ZERO), 0),
        ("(s-1)^2/(s+1)^2", rf(ZERO), rf(ONE), 0),
        (
            "5/s^3",
            rf(2 * S**2 + S + Fraction(1, 5), (S + ONE) ** 2),
            rf(S**2 + 5 * S + 10, (S + ONE) ** 2),
            0,
        ),
    ],
)
def test_scalar_witness_is_read_off_the_certificate(monkeypatch, text, u, v, eliminations):
    calls = []
    original = twodof.factor.poly_row_diophantine

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(twodof.factor, "poly_row_diophantine", counted)
    smfd = stable_mfd(right_coprime_mfd(parse_matrix(text)))
    assert (smfd.u.entry(0, 0), smfd.v.entry(0, 0), len(calls)) == (u, v, eliminations)


def test_stable_mfd_example_plant():
    plant = RatMat([[rf((S - ONE) * (S + 2 * ONE), (S - 2 * ONE) ** 2)]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=2)
    assert smfd.nprime.entry(0, 0) == rf(S - ONE, S + 2 * ONE)
    assert smfd.dprime.entry(0, 0) == rf((S - 2 * ONE) ** 2, (S + 2 * ONE) ** 2)
    assert smfd.plant() == plant
    # witness identity and memberships
    assert smfd.u @ smfd.nprime + smfd.v @ smfd.dprime == RatMat.identity(1)
    for mat in (smfd.nprime, smfd.dprime, smfd.u, smfd.v):
        assert rh_inf_verdict(mat)


def test_stable_mfd_random_sweep():
    rng = random.Random(43)
    for trial in range(25):
        rows, cols = [(1, 1), (2, 2)][trial % 2]
        plant = random_proper_plant(rng, rows, cols, max_den=2)
        smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
        assert smfd.plant() == plant
        ident = smfd.u @ smfd.nprime + smfd.v @ smfd.dprime
        assert ident == RatMat.identity(cols)
        for mat in (smfd.nprime, smfd.dprime, smfd.u, smfd.v):
            assert rh_inf_verdict(mat)


def test_stable_mfd_left_pair_and_inverse():
    rng = random.Random(53)
    for trial in range(8):
        size = 1 + trial % 2
        shift = Fraction(1 + trial % 3, 1 + trial % 2)
        plant = random_proper_plant(rng, size, size, max_den=2)
        smfd = stable_mfd(right_coprime_mfd(plant), shift)
        assert smfd.plant() == plant
        assert smfd.dprime_inv == smfd.dprime.inv()
        left = left_coprime_mfd(plant)
        assert (smfd.dl_prime, smfd.nl_prime) == stable_left_mfd(left, shift)
        assert smfd.dl_prime.inv() @ smfd.nl_prime == plant


def test_poly_row_diophantine_bounds_each_block():
    # alpha*(s-1) + beta*(s-2)^2 = (s+1)*(s-1) + 3*(s-2)^2
    a, d = S - ONE, (S - 2 * ONE) ** 2
    rhs = [(S + ONE) * a + 3 * d]
    nmat, dmat = PolyMat([[a]]), PolyMat([[d]])
    assert poly_row_diophantine(nmat, dmat, rhs, 1, 0) == ([S + ONE], [Poly.constant(3)])
    # beta of degree 1 would leave an s^3 term, so beta is a constant and
    # a constant alpha cannot match the rest
    assert poly_row_diophantine(nmat, dmat, rhs, 0, 1) is None
    assert poly_row_diophantine(nmat, dmat, rhs, 0, 0) is None


def test_poly_row_diophantine_bounds_random():
    rng = random.Random(59)
    outcomes = []
    for trial in range(12):
        size = 1 + trial % 2
        mfd = right_coprime_mfd(random_proper_plant(rng, size, size, max_den=2))
        rhs = [ONE] + [ZERO] * (size - 1)
        solved = {}
        for bounds in [(i, j) for i in range(3) for j in range(3)]:
            solved[bounds] = found = poly_row_diophantine(mfd.n, mfd.d, rhs, *bounds)
            outcomes.append(found is not None)
            if found is None:
                continue
            alpha, beta = found
            assert all((e.degree() or 0) <= bounds[0] for e in alpha)
            assert all((e.degree() or 0) <= bounds[1] for e in beta)
            assert PolyMat([alpha]) @ mfd.n + PolyMat([beta]) @ mfd.d == PolyMat([rhs])
        # a larger bound only adds unknowns
        for (i, j), found in solved.items():
            for larger in [(i + 1, j), (i, j + 1)]:
                if found is not None and larger in solved:
                    assert solved[larger] is not None
    assert 20 <= sum(outcomes) <= len(outcomes) - 20


def test_stable_mfd_rejects_bad_input():
    with pytest.raises(ValueError):
        stable_mfd(right_coprime_mfd(RatMat([[rf(ONE, S + ONE)]])), shift=0)
    common = S + ONE
    bogus = RightMFD(
        n=PolyMat([[common * (S - ONE)]]), d=PolyMat([[common * (S + 2 * ONE)]])
    )
    with pytest.raises(ValueError):
        stable_mfd(bogus)
    with pytest.raises(ValueError, match="plant must be proper"):
        stable_mfd(right_coprime_mfd(parse_matrix("(s+1)^2/(s+2)")))


def test_zeros_and_poles_example():
    plant = RatMat([[rf((S - ONE) * (S + 2 * ONE), (S - 2 * ONE) ** 2)]])
    report = zeros_and_poles(right_coprime_mfd(plant))
    assert report.zero_polynomial == (S - ONE) * (S + 2 * ONE)
    assert report.pole_polynomial == (S - 2 * ONE) ** 2
    locs = {z.location for z in report.zeros}
    assert locs == {Fraction(1), Fraction(-2)}
    unstable = report.unstable_zeros()
    assert len(unstable) == 1 and unstable[0].location == Fraction(1)
    poles = [p for p in report.poles if p.unstable]
    assert len(poles) == 1 and poles[0].location == Fraction(2)
    assert poles[0].multiplicity == 2


def test_zero_directions_annihilate_numerator():
    # 2x2 plant with a transmission zero at s = 1 in the (1,1) channel only
    plant = RatMat(
        [
            [rf(S - ONE, S + ONE), rf(ZERO)],
            [rf(ZERO), rf(ONE, S + 2 * ONE)],
        ]
    )
    mfd = right_coprime_mfd(plant)
    report = zeros_and_poles(mfd)
    z = [zero for zero in report.zeros if zero.location == Fraction(1)]
    assert len(z) == 1
    direction = z[0].direction
    assert direction is not None
    vals = mfd.n.to_ratmat().eval_at(Fraction(1))
    combo = [
        sum(direction[i] * vals[i][j] for i in range(2)) for j in range(2)
    ]
    assert all(c == 0 for c in combo)


def test_scalar_pole_zero_disjoint_for_coprime_fractions():
    # a transmission zero can coincide with a pole in another channel of a
    # MIMO plant, but for scalar coprime fractions the two sets are disjoint
    rng = random.Random(47)
    from twodof.polyalg import poly_gcd

    for _ in range(30):
        plant = random_proper_plant(rng, 1, 1, max_den=3)
        if plant.entry(0, 0).num.is_zero():
            continue
        report = zeros_and_poles(right_coprime_mfd(plant))
        g = poly_gcd(report.zero_polynomial, report.pole_polynomial)
        assert g == ONE
