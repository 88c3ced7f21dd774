"""The premises under which three refusals could never fire, and went.

* ``synthesis._unstable_zero_diagnosis`` reads a left null direction at
  each rational root of the plant's zero polynomial (the gcd of the
  maximal nonzero minors of n), with no fallback: n(z) loses rank there,
  so a direction exists.
* ``twodof stabilize`` tries the sample parameter k = 1/(s + 1 + shift)
  with no fallback: when the central controller exists, v(inf) is
  nonsingular, and a strictly proper k leaves v - k@nl' equal to v at
  infinity, so its controller is proper.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from twodof.factor import _left_null_direction, _zero_polynomial, right_coprime_mfd, stable_mfd
from twodof.polyalg import ONE, S, PolyMat, RatFn, RatMat
from twodof.stability import irreducible_factors
from twodof.stabilize import InadmissibleParameter, _youla_feedback

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200, database=None)
SHAPES = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)])


@st.composite
def with_roots(draw, max_size=2):
    """c * (s - r1) * ... with integer roots in -3..3."""
    out = ONE * draw(st.integers(-2, 2))
    for r in draw(st.lists(st.integers(-3, 3), max_size=max_size)):
        out = out * (S - r)
    return out


@st.composite
def numerators(draw):
    """Polynomial matrices with small integer roots; a row factor shared
    by a whole row gives 2x2 matrices rational zeros too."""
    rows, cols = draw(SHAPES)
    row_factors = [draw(with_roots(max_size=1)) for _ in range(rows)]
    return PolyMat([[f * draw(with_roots()) for _ in range(cols)] for f in row_factors])


@SETTINGS
@given(numerators())
def test_every_rational_zero_has_a_left_null_direction(n):
    p, m = n.shape
    zero_poly = _zero_polynomial(n)
    for q, _ in irreducible_factors(zero_poly):
        if q.degree() == 1:
            z = -q.coeff(0)
            eta = _left_null_direction(n, z)
            assert eta is not None and any(eta)
            assert all(sum(eta[i] * n.entry(i, j)(z) for i in range(p)) == 0 for j in range(m))


@st.composite
def proper_plants(draw):
    """Entries (c*s + e)/(s - r) or e/(s - r), r in -2..2: strictly
    proper and biproper entries, with unstable poles."""
    rows, cols = draw(SHAPES)
    entries = []
    for _ in range(rows * cols):
        den = S - draw(st.integers(-2, 2))
        num = S * draw(st.integers(-2, 2)) + draw(st.integers(-2, 2))
        entries.append(RatFn(num, den))
    return RatMat([entries[i * cols:(i + 1) * cols] for i in range(rows)])


@SETTINGS
@given(proper_plants())
def test_the_sample_parameter_is_admissible_wherever_the_central_controller_is(plant):
    smfd = stable_mfd(right_coprime_mfd(plant))
    try:
        _youla_feedback(smfd)
    except InadmissibleParameter:
        return
    v_inf = RatMat(smfd.v.at_infinity())
    assert not v_inf.det().is_zero()
    outputs, inputs = plant.shape
    k = RatMat([[RatFn(ONE, S + (1 + smfd.shift)) for _ in range(outputs)] for _ in range(inputs)])
    cy, _, loop = _youla_feedback(smfd, k)
    assert cy.is_proper() and loop.verdict
