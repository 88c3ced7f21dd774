"""The central controller of a design comes from the fraction it was given.

A design receives a proper-stable fraction with its Bezout witness
(u, v); the central feedback map cy = -v**-1 @ u is built from that
witness and checked once, without refactoring the plant.  Each design
forms its closed loop once and reads its internal-stability certificate
from that one formation: a Youla controller's loop comes from the one
product in _youla_feedback, a restricted-loop design's from _fraction_loop
on the fractions it holds, and any other (p, cy) from gang_of_four, which
hands their fractions to _fraction_loop.
"""

import hashlib
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twodof.factor
import twodof.polyalg
import twodof.stability
import twodof.stabilize
import twodof.synthesis
import twodof.zfactor
from twodof.cli import load_problem, main, parse_matrix, parse_poly_matrix
from twodof.factor import StableMFD, right_coprime_mfd, stable_mfd
from twodof.polyalg import ONE, S, Poly, PolyMat, RatFn, RatMat
from twodof.stabilize import (
    InadmissibleParameter,
    TwoDofConfig,
    gang_of_four,
    solve_bezout,
    youla_controller,
)
from twodof.synthesis import (
    DesignObstruction,
    denominator_assignment_direct,
    denominator_assignment_unity,
    diagonal_decoupling,
    find_admissible_unity_xprime,
    inverse_problem,
    model_matching,
    static_decoupling,
    unity_feedback_admissible,
    unity_feedback_controller,
)
from twodof.verify import closed_loop

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
SEED5_4X4 = Path(__file__).resolve().parent / "data" / "seed5_4x4.ini"
UNSTABLE_2X2 = "1/(s-1), 1/(s+2); 1/(s+3), 1/(s+1)"

BIPROPER_2X2 = (
    "(s+3)/s, (2*s+2)/(s-2); "
    "(2*s^2+2*s-1)/(s^2-s-6), (-s^2-2*s+2)/(s^2+4*s+3)"
)


def rf(num, den=ONE):
    return RatFn(num, den)


def random_proper_plant(rng, rows, cols, max_den=2):
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


# the two places a closed loop is formed, the Youla loop and the loop of a
# right fraction and a feedback fraction, and gang_of_four, which hands a
# pair of rational matrices to the second
LOOP_FORMERS = ["gang_of_four", "_youla_feedback", "_fraction_loop"]


def count_calls(monkeypatch, names, source=twodof.stabilize):
    """Wrap each named function of ``source`` under every name a twodof
    module holds it by; returns the live call counts."""
    counts = dict.fromkeys(names, 0)
    modules = [mod for name, mod in sys.modules.items() if name.startswith("twodof")]
    for name in names:
        original = getattr(source, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def test_scalar_design_analyses_its_plant_once(monkeypatch):
    # a plant no other test uses, so no cached analysis of it exists
    plant = RatMat([[rf(S + 3 * ONE, (S - ONE) * (S + 4 * ONE))]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    t = smfd.nprime
    analyses = count_calls(
        monkeypatch, ["right_coprime_mfd", "stable_mfd", "left_coprime_mfd"], twodof.factor
    )
    loops = count_calls(monkeypatch, LOOP_FORMERS)
    res = model_matching(smfd, t)
    assert {**analyses, **loops} == {
        "right_coprime_mfd": 0,
        "stable_mfd": 0,
        "left_coprime_mfd": 0,
        "gang_of_four": 0,
        "_youla_feedback": 1,
        "_fraction_loop": 0,
    }
    assert res.achieved_t == t
    assert all(c.passed for c in res.certificates)
    assert res.configuration.cy == youla_controller(plant, shift=1)


def test_design_controller_matches_plant_level_youla_controller():
    # a design's cy is youla_controller's at the k the design chose: k = 0
    # on 12 plants, and the constructed constant on the 4 2x2 plants whose
    # k = 0 gives an improper cy
    rng = random.Random(43)
    constructed = 0
    for trial in range(16):
        size = 1 + trial % 2
        shift = Fraction(1 + trial % 3, 1 + trial % 2)
        plant = random_proper_plant(rng, size, size)
        smfd = stable_mfd(right_coprime_mfd(plant), shift=shift)
        k = twodof.stabilize._stabilizing_feedback(smfd)[0]
        if k is not None:
            with pytest.raises(InadmissibleParameter, match="improper"):
                youla_controller(plant, shift=shift)
            constructed += 1
        res = model_matching(smfd, smfd.nprime)
        assert res.configuration.cy == youla_controller(plant, k, shift=shift), (plant, shift)
        assert res.verdict
    assert constructed == 4


def test_static_design_uses_the_central_controller():
    plant = RatMat([[rf(S + 3 * ONE, (S - ONE) * (S + 4 * ONE))]])
    smfd = stable_mfd(right_coprime_mfd(plant), shift=2)
    res = static_decoupling(smfd, RatMat([[rf(2 * ONE)]]))
    assert res.configuration.cy == youla_controller(plant, shift=2)
    assert res.verdict
    assert all(c.passed for c in res.certificates)


def test_improper_central_controller_is_rejected(tmp_path, capsys):
    # youla_controller takes k = 0 as given and refuses its improper cy;
    # twodof stabilize passes over it to the constructed k = [0 0; 0 1]
    plant = parse_matrix(BIPROPER_2X2)
    with pytest.raises(InadmissibleParameter, match="improper"):
        youla_controller(plant, shift=1)

    problem = tmp_path / "biproper.ini"
    problem.write_text(f"[plant]\nmatrix = {BIPROPER_2X2}\n")
    assert main(["stabilize", str(problem)]) == 0
    out, err = capsys.readouterr()
    assert "constant parameter k =\n  [ 0  0 ]\n  [ 0  1 ]\n" in out
    assert out.count("internal stability: stable") == 2 and err == ""


@pytest.mark.parametrize("text", ["2", "(s+1)/(s+2)", "1/(s+1), 0; 0, 2"])
def test_a_stable_plant_refusing_the_central_parameter_takes_cy_zero(text):
    # v is singular, so k = 0 is refused; k = -u@dl'**-1 gives cy = 0 with a
    # stable loop, and k plus a strictly proper sample is admissible
    plant = parse_matrix(text)
    smfd = stable_mfd(right_coprime_mfd(plant))
    with pytest.raises(InadmissibleParameter, match="singular"):
        twodof.stabilize._youla_feedback(smfd)
    k, cy, _, loop = twodof.stabilize._stabilizing_feedback(smfd)
    assert k == -(smfd.u @ smfd.dl_prime.inv())
    assert cy == RatMat.zeros(*cy.shape) and loop.verdict.stable
    sample = k + RatMat(((rf(ONE, S + 2 * ONE),) * plant.shape[0],) * plant.shape[1])
    cy, _, loop = twodof.stabilize._youla_feedback(smfd, sample)
    assert loop.verdict.stable and cy.is_proper()


def test_the_central_parameter_stays_where_it_is_admissible_or_the_plant_unstable():
    # a stable plant with v nonsingular keeps k = 0; an unstable scalar plant
    # with v = 0 takes the constructed constant, k = 1, and an unstable 2x2
    # plant whose k = 0 gives an improper cy the constructed [0 0; 0 1]
    smfd = stable_mfd(right_coprime_mfd(parse_matrix("1/(s+1)")))
    assert twodof.stabilize._stabilizing_feedback(smfd)[0] is None
    smfd = stable_mfd(right_coprime_mfd(parse_matrix("(s+1)/(s-2)")))
    with pytest.raises(InadmissibleParameter, match="singular"):
        twodof.stabilize._youla_feedback(smfd)
    k, cy, _, loop = twodof.stabilize._stabilizing_feedback(smfd)
    assert k == RatMat([[rf(ONE)]]) and cy == RatMat([[rf(2 * S - ONE, S + ONE)]])
    assert loop.verdict.stable
    smfd = stable_mfd(right_coprime_mfd(parse_matrix(BIPROPER_2X2)))
    with pytest.raises(InadmissibleParameter, match="improper"):
        twodof.stabilize._youla_feedback(smfd)
    k, cy, _, loop = twodof.stabilize._stabilizing_feedback(smfd)
    assert k == RatMat([[0, 0], [0, 1]]) and cy.is_proper() and loop.verdict.stable


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(st.sampled_from([1, -1, 2, -2, 3, -3]), st.integers(1, 5), st.integers(1, 3))
def test_an_unstable_scalar_plant_refused_at_k_zero_designs_with_k_one(c, b, sigma):
    # at shift sigma the witness of c*(s+sigma)/(s-b) has v = 0, as that of
    # (s+1)/(s-2) has at shift 1, so k = 0 is refused; nl'(oo) != 0, so the
    # constructed k is 1, which gives a proper cy with a stable loop, and the
    # design passes every certificate
    plant = parse_matrix(f"{c}*(s+{sigma})/(s-{b})")
    smfd = stable_mfd(right_coprime_mfd(plant), shift=sigma)
    with pytest.raises(InadmissibleParameter, match="singular"):
        twodof.stabilize._youla_feedback(smfd)
    k, cy, _, _ = twodof.stabilize._stabilizing_feedback(smfd)
    assert k == RatMat([[1]]) and cy.is_proper()
    assert gang_of_four(plant, cy).verdict.stable
    res = model_matching(smfd, parse_matrix(f"(s+{sigma})/(s+{sigma})^2"))
    assert res.verdict.stable and all(cert.passed for cert in res.certificates)


def test_a_refused_candidate_is_passed_over_and_running_out_raises(monkeypatch):
    # for (s+1)/(s-2), v = 0: k = 0 is singular, and k = 1/(s+3) gives an
    # improper cy; the designs pass over a refused candidate to the next
    # one, and a list with none admitted fails the construction's self-check
    smfd = stable_mfd(right_coprime_mfd(parse_matrix("(s+1)/(s-2)")))
    improper = RatMat([[rf(ONE, S + 3 * ONE)]])
    with pytest.raises(InadmissibleParameter, match="improper"):
        twodof.stabilize._youla_feedback(smfd, improper)
    given_ks = lambda *ks: lambda smfd: iter((None, *ks))
    monkeypatch.setattr(twodof.stabilize, "_candidates", given_ks(improper, RatMat([[rf(-ONE)]])))
    assert twodof.stabilize._stabilizing_feedback(smfd)[0] == RatMat([[rf(-ONE)]])
    monkeypatch.setattr(twodof.stabilize, "_candidates", given_ks(improper))
    with pytest.raises(ArithmeticError, match="parameters k ran out"):
        twodof.stabilize._stabilizing_feedback(smfd)


def biproper_plant(m: int, seed: int) -> str:
    """A drawn biproper m x m plant: each entry is (c0 + ... + ck*s^k) /
    prod (s + b) over k factors, with k in 1..2, c0..c(k-1) in -9..9, ck in
    +-1..+-3 and each b in -3..9 (0 taken as 1), from
    random.Random(f"{m}:{seed}")."""
    rng = random.Random(f"{m}:{seed}")
    entries = []
    for _ in range(m * m):
        k = rng.randint(1, 2)
        cs = [rng.randint(-9, 9) for _ in range(k)] + [rng.choice([1, -1, 2, -2, 3, -3])]
        bs = [rng.randint(-3, 9) or 1 for _ in range(k)]
        num = " + ".join(f"({c})*s^{i}" for i, c in enumerate(cs))
        entries.append(f"({num})/(" + "*".join(f"(s + ({b}))" for b in bs) + ")")
    return "; ".join(", ".join(entries[i : i + m]) for i in range(0, m * m, m))


def block_diagonal(blocks) -> str:
    """The block-diagonal plant of the square plants ``blocks``, each given
    as text, in order."""
    parsed = [[row.split(", ") for row in block.split("; ")] for block in blocks]
    size, col, rows = sum(map(len, parsed)), 0, []
    for block in parsed:
        rows += [["0"] * col + row + ["0"] * (size - col - len(row)) for row in block]
        col += len(block)
    return "; ".join(", ".join(row) for row in rows)


# c*(s+1)/(s-b) has v = 0 at shift 1, so each such block puts a zero row in
# v(oo); the other blocks are stable scalars and drawn biproper 2x2 plants
UNSTABLE_SCALAR = st.builds(
    "{}*(s+1)/(s-{})".format, st.sampled_from([1, -1, 2, -2, 3, -3]), st.integers(1, 5)
)
BLOCK = st.one_of(
    UNSTABLE_SCALAR,
    st.integers(1, 5).map("1/(s+{})".format),
    st.integers(0, 19).map(lambda seed: biproper_plant(2, seed)),
)
# drawn block-diagonal plants of up to 4 rows, with a zero row of v(oo) in
# any position
BLOCK_DIAGONAL = (
    st.tuples(UNSTABLE_SCALAR, st.lists(BLOCK, min_size=1, max_size=2))
    .flatmap(lambda drawn: st.permutations([drawn[0], *drawn[1]]))
    .map(block_diagonal)
    .filter(lambda text: text.count(";") < 4)
)
THE_SCANS_MISS = "(s+1)/(s-2), 0, 0; 0, 1/(s+1), 0; 0, 0, 1/(s+1)"


def exact_rank(rows) -> int:
    """The rank of a constant matrix, by Gaussian elimination over Fraction."""
    rows, rank = [[Fraction(x) for x in row] for row in rows], 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def lhs_at(v, k, nl):
    """v - k@nl for constant matrices, as rows of Fractions."""
    return [[a - sum(c * nl[l][j] for l, c in enumerate(kr) if c) for j, a in enumerate(vr)]
            for vr, kr in zip(v, k)]


def scan_oracle(v, nl):
    """The first constant k, in the order of the scan the designs used to
    make, that makes the constant v - k@nl nonsingular; None if none of the
    scan's 624 constants does.  The scan tried the nonzero constants with
    entries in 0, 1, -1, 2, -2, row-major in product order, so for m*p >= 5
    only the last four entries were ever nonzero; a constant k is admitted
    exactly when v(oo) - k@nl'(oo) is nonsingular."""
    m, p = len(v), len(nl)
    for c in islice(product((0, 1, -1, 2, -2), repeat=m * p), 1, 625):
        k = [c[i : i + p] for i in range(0, m * p, p)]
        if exact_rank(lhs_at(v, k, nl)) == m:
            return RatMat(k)
    return None


def check_the_constructed_k(text: str) -> RatMat | None:
    """The k the designs take on the plant ``text`` where k = 0 is refused,
    else None, checked: k = -u@dl'**-1 (cy = 0) on a stable plant, and on
    an unstable one a 0/1 constant with at most one 1 in each row and
    column that makes v(oo) - k@nl'(oo) nonsingular and is the scan's first
    admitted constant wherever the scan admits one; either gives a proper
    cy with a stable loop, and static decoupling closes a plant of up to
    three rows wherever n'(0) is nonsingular."""
    plant = parse_matrix(text)
    smfd = stable_mfd(right_coprime_mfd(plant))
    try:
        twodof.stabilize._youla_feedback(smfd)
        return None
    except InadmissibleParameter:
        pass
    k, cy, _, loop = twodof.stabilize._stabilizing_feedback(smfd)
    assert cy.is_proper() and loop.verdict.stable
    if cy == RatMat.zeros(*cy.shape):
        assert k == -(smfd.u @ smfd.dl_prime.inv())
        return k
    v, nl = smfd.v.at_infinity(), smfd.nl_prime.at_infinity()
    ones = [[int(e == RatFn(ONE)) for e in row] for row in k.rows]
    assert k == RatMat(ones) and all(sum(row) <= 1 for row in ones + list(zip(*ones)))
    assert exact_rank(lhs_at(v, ones, nl)) == len(v)
    first = scan_oracle(v, nl)
    assert first is None or first == k, first
    m = plant.shape[0]
    if m < 4 and exact_rank(smfd.nprime.eval_at(0)) == m:
        res = static_decoupling(smfd, RatMat.identity(m))
        assert res.verdict.stable and all(cert.passed for cert in res.certificates)
    return k


PLANT_FAMILIES = {
    "biproper": st.builds(biproper_plant, st.sampled_from([4, 3, 2, 1]), st.integers(0, 19)),
    "block-diagonal": BLOCK_DIAGONAL,
}


@pytest.mark.parametrize("family", PLANT_FAMILIES)
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data())
def test_a_plant_refused_at_k_zero_designs_with_the_constructed_k(family, data):
    # drawn biproper plants up to 4x4, and block-diagonal ones with zero
    # rows of v(oo) in any position (``check_the_constructed_k``)
    check_the_constructed_k(data.draw(PLANT_FAMILIES[family]))


@pytest.mark.parametrize("text, k", [
    (THE_SCANS_MISS, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ("1/(s+1), 0, 0; 0, 1/(s+1), 0; 0, 0, (s+1)/(s-2)", [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
    ("(s+1)/(s-2), 0; 0, 1/(s+1)", [[1, 0], [0, 0]]),
], ids=["first-row", "last-row", "2x2"])
def test_the_constructed_k_designs_what_the_scan_missed(text, k):
    # the scan's constants are nonzero in the last four entries alone, and
    # the first plant needs a 1 in k's first row: none of the 624 admits it;
    # the same plant with its unstable entry last, and the 2x2, it admitted
    smfd = stable_mfd(right_coprime_mfd(parse_matrix(text)))
    scanned = scan_oracle(smfd.v.at_infinity(), smfd.nl_prime.at_infinity())
    assert (scanned is None) == (text == THE_SCANS_MISS)
    assert check_the_constructed_k(text) == RatMat(k)


# plants of up to 3 rows from the draws above; a drawn biproper 3x3 plant's
# closed loop takes tens of milliseconds to form, so one is enough
RESPONSE_PLANTS = [biproper_plant(m, seed) for m in (1, 2) for seed in range(3)] + [
    biproper_plant(3, 1),
    THE_SCANS_MISS,
    "(s+1)/(s-2), 0; 0, 1/(s+1)",
    block_diagonal(["1/(s+2)", "2*(s+1)/(s-3)"]),
]


@lru_cache(maxsize=None)
def analysed(text: str):
    """The plant, its analysis and the k the designs take on it, once."""
    plant = parse_matrix(text)
    smfd = stable_mfd(right_coprime_mfd(plant))
    return plant, smfd, twodof.stabilize._stabilizing_feedback(smfd)[0]


def proper_stable(rows: int, cols: int):
    """Drawn rows x cols matrices whose entries are each a constant a in
    -3..3 or (a*s + b)/(s + c) with c in 1..4: proper and stable."""
    entry = st.tuples(st.booleans(), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4))
    build = lambda lag, a, b, c: RatFn(a * S + b * ONE, S + c * ONE) if lag else RatFn(a * ONE)
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: RatMat([[build(*e) for e in es[i : i + cols]] for i in range(0, rows * cols, cols)])
    )


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(data=st.data())
def test_every_admitted_k_gives_the_designs_response(data):
    # the response half of the characterization: for a realizable target
    # t = n'@x', every proper stable k with v(oo) - k@nl'(oo) nonsingular
    # is admitted and gives y/r = n'@x' and u/r = d'@x' exactly, with a
    # stable loop, through cy = -(v - k@nl')**-1 @ (u + k@dl') and
    # cr = (v - k@nl')**-1 @ x'; every other k is refused; and
    # model_matching's (cy, cr) is the pair at the k it takes
    text = data.draw(st.sampled_from(RESPONSE_PLANTS))
    plant, smfd, k_design = analysed(text)
    m = plant.shape[0]
    xprime, k = data.draw(proper_stable(m, m)), data.draw(proper_stable(m, m))
    lhs = lhs_at(smfd.v.at_infinity(), k.at_infinity(), smfd.nl_prime.at_infinity())
    try:
        cy, cr, loop = twodof.stabilize._youla_feedback(smfd, k, xprime)
    except InadmissibleParameter:
        assert exact_rank(lhs) < m
        return
    assert exact_rank(lhs) == m and loop.verdict.stable
    report = closed_loop(plant, TwoDofConfig(cy=cy, cr=cr))
    assert report.t_yr == smfd.nprime @ xprime and report.t_ur == smfd.dprime @ xprime
    assert all(verdict.stable for _, _, verdict in report.internal_maps)
    res = model_matching(smfd, smfd.nprime @ xprime)
    assert res.xprime == xprime
    assert res.configuration == twodof.stabilize._youla_feedback(smfd, k_design, xprime)[:2]


# scalar plants with an unstable pole of multiplicity up to 12, and a zero
# in either half-plane (a cancelled pole leaves one fewer)
MULTIPLE_POLE = st.builds(
    "{}*(s + ({}))/((s-{})^{}*(s+1))".format,
    st.sampled_from([1, -1, 2, -3]), st.integers(-3, 3), st.integers(1, 3), st.integers(1, 12),
)
UNITY_PLANTS = st.one_of(
    st.builds(biproper_plant, st.sampled_from([3, 2, 1]), st.integers(0, 19)),
    BLOCK_DIAGONAL,
    MULTIPLE_POLE,
)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(text=UNITY_PLANTS, shift=st.sampled_from([1, 2]))
@example(text="-(s+1)/(s+2)", shift=1)
@example(text="1/(s-1)^12", shift=1)
def test_the_unity_parameter_is_read_off_the_youla_controller(text, shift):
    # x' = -(u + k@dl') for the k the designs take: the Bezout identity
    # gives I + x'@n' = (v - k@nl')@d', so x' is admissible, and the unity
    # loop's cff = f**-1@x' is that k's feedback map cy, with a stable loop
    smfd = stable_mfd(right_coprime_mfd(parse_matrix(text)), shift)
    cy = twodof.stabilize._stabilizing_feedback(smfd)[1]
    xprime = find_admissible_unity_xprime(smfd)
    assert unity_feedback_admissible(smfd, xprime)
    cff, loop = unity_feedback_controller(smfd, xprime)
    assert cff == cy and loop.verdict.stable


@pytest.mark.parametrize("m, refused, unstable", [(2, 13, 11), (3, 17, 15)])
def test_a_drawn_square_plant_refused_at_k_zero_designs_with_the_next_candidate(m, refused, unstable):
    # of 20 drawn biproper m x m plants, k = 0 is refused on `refused` (cy
    # improper, or v singular); each of them takes the candidate after k = 0:
    # k = -u@dl'**-1 on a stable plant, else the constructed constant, here a
    # 1 in the last entry on each of the `unstable` ones, with a proper cy
    # that stabilizes the plant
    counts = [0, 0]
    last = RatMat([[int(i == j == m - 1) for j in range(m)] for i in range(m)])
    for seed in range(20):
        plant = parse_matrix(biproper_plant(m, seed))
        smfd = stable_mfd(right_coprime_mfd(plant))
        try:
            twodof.stabilize._youla_feedback(smfd)
            continue
        except InadmissibleParameter:
            counts[0] += 1
        k, cy, _, _ = twodof.stabilize._stabilizing_feedback(smfd)
        assert k == list(islice(twodof.stabilize._candidates(smfd), 2))[1]
        assert cy.is_proper() and gang_of_four(plant, cy).verdict.stable
        counts[1] += k == last
    assert counts == [refused, unstable]


@pytest.mark.parametrize("text, line", [
    ("(s+1)/(s-2)", [[[1]]]),
    (BIPROPER_2X2, [[[0, 0], [0, c]] for c in (1, -1, -2, -3)]),
    ("(s+1)/(s-2), 0, 0; 0, -2/(s+2), 1/(s-2); 0, 0, -3/(s+3)",
     [[[1 - t, 0, t], [0, 0, 0], [t, 0, 0]] for t in range(7)]),
], ids=["1x1", "2x2", "3x3"])
def test_the_candidates_are_k_zero_then_the_constructed_line(monkeypatch, text, line):
    # with every k refused, an unstable plant tries k = 0 and then each
    # distinct nonzero k(t) = (1 - t)*k_oo + t*k_0, t = 0, ..., 2m, once,
    # and running out fails the construction's self-check, which no plant
    # reaches: k_oo = k_0 = 1 for the scalar plant, k_0 = 0 for the 2x2 and
    # k_0 = [0 0 1; 0 0 0; 1 0 0] for the 3x3
    smfd = stable_mfd(right_coprime_mfd(parse_matrix(text)))
    tried = []

    def refused(smfd, k=None, xprime=None):
        tried.append(k)
        raise InadmissibleParameter(f"refused {len(tried)}")

    monkeypatch.setattr(twodof.stabilize, "_youla_feedback", refused)
    with pytest.raises(ArithmeticError, match="parameters k ran out"):
        twodof.stabilize._stabilizing_feedback(smfd)
    assert tried == [None, *map(RatMat, line)]


def test_a_design_on_a_stable_static_gain_takes_cy_zero():
    problem = load_problem(str(PROBLEMS / "example_stable_gain.ini"))
    smfd = stable_mfd(right_coprime_mfd(problem.plant))
    res = model_matching(smfd, parse_matrix(problem.design["t"]))
    assert res.configuration.cy == RatMat.zeros(1, 1)
    assert res.configuration.cr == RatMat([[rf(ONE, S + ONE)]])
    assert res.verdict.stable and all(c.passed for c in res.certificates)


def test_stabilize_command_checks_each_controller_once(monkeypatch, capsys):
    counts = count_calls(monkeypatch, LOOP_FORMERS)
    assert main(["stabilize", str(PROBLEMS / "example_match.ini")]) == 0
    out = capsys.readouterr().out
    assert out.count("internal stability: stable") == 2
    assert counts == {"gang_of_four": 0, "_youla_feedback": 2, "_fraction_loop": 0}


def test_stabilize_command_factors_the_plant_twice(monkeypatch, capsys):
    # the analysis' right fraction, whose certificate the Bezout pair reuses,
    # and the left fraction that the sample parameter reads
    twodof.stabilize._rh_data_cached.cache_clear()
    counts = count_calls(monkeypatch, ["right_coprime_mfd"])
    assert main(["stabilize", str(PROBLEMS / "example_match.ini")]) == 0
    capsys.readouterr()
    assert counts == {"right_coprime_mfd": 2}


@pytest.mark.parametrize(
    "command, eliminations",
    # the plant's right coprime fraction, certified by its one Hermite
    # transform; factor and stabilize add the left fraction
    [("factor", 2), ("stabilize", 2), ("match", 1), ("unity-parameter", 1),
     ("static-decouple", 1)],
)
def test_each_command_eliminates_the_plant_once(monkeypatch, capsys, command, eliminations):
    twodof.stabilize._rh_data_cached.cache_clear()
    counts = count_calls(monkeypatch, ["hermite"], twodof.polyalg)
    assert main([command, str(PROBLEMS / "example_match.ini")]) == 0
    capsys.readouterr()
    assert counts == {"hermite": eliminations}


def count_eliminations(monkeypatch):
    calls = []
    original = twodof.factor.poly_row_diophantine

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(twodof.factor, "poly_row_diophantine", counted)
    return calls


@pytest.mark.parametrize(
    "problem, command, eliminations",
    # the Bezout witnesses of a scalar plant are read off its Hermite
    # certificate; the 2x2 plant's rows that are not unique share one
    # coefficient-matching elimination per degree: one row of (u, v) and
    # both rows of (x1, x2)
    [("example_match.ini", command, 0)
     for command in ("factor", "stabilize", "match", "unity-parameter", "static-decouple")]
    + [("example_decouple.ini", "factor", 1), ("example_decouple.ini", "stabilize", 2)],
)
def test_each_command_reads_its_witnesses_off_the_certificate(
    monkeypatch, capsys, problem, command, eliminations
):
    twodof.stabilize._rh_data_cached.cache_clear()
    calls = count_eliminations(monkeypatch)
    assert main([command, str(PROBLEMS / problem)]) == 0
    capsys.readouterr()
    assert len(calls) == eliminations


def test_witness_rows_at_one_degree_share_one_elimination(monkeypatch):
    # no row of either witness of the seeded 4x4 plant is unique at its
    # least degree, 5: all four rows ride along in one elimination each
    mfd = right_coprime_mfd(load_problem(str(SEED5_4X4)).plant)
    calls = count_eliminations(monkeypatch)
    smfd = stable_mfd(mfd)
    assert [(len(args[2]), args[3]) for args in calls] == [(4, 5)]
    calls.clear()
    solve_bezout(smfd.source)
    assert [(len(args[2]), args[3]) for args in calls] == [(4, 5)]


def test_seeded_4x4_stabilize_prints_the_bytes_of_one_elimination_per_row(capsys):
    # the sha256 of the 211233 bytes printed while each witness row ran its
    # own elimination, kept in sha256sum's form for CI's installed script too
    assert main(["stabilize", str(SEED5_4X4)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SEED5_4X4.with_suffix(".sha256").read_text().split()[0]


def test_seeded_4x4_factor_prints_the_bytes_of_its_exact_part(capsys):
    # the sha256 of every line before the first "zero at" (44 lines, 27745
    # bytes: the fractions, the witness and the zero and pole polynomials,
    # all exact), in sha256sum's form for CI's installed script too; the
    # float zero lines are left out, as their last digit may follow the
    # platform's libm
    assert main(["factor", str(SEED5_4X4)]) == 0
    out = capsys.readouterr().out
    exact = out[: out.index("\nzero at") + 1].encode()
    assert (len(exact.splitlines()), len(exact)) == (44, 27745)
    pin = SEED5_4X4.with_name("seed5_4x4_factor.sha256").read_text().split()[0]
    assert hashlib.sha256(exact).hexdigest() == pin


def count_plant_builds(monkeypatch):
    builds = []
    original = StableMFD.plant

    def plant(self):
        builds.append(self)
        return original(self)

    monkeypatch.setattr(StableMFD, "plant", plant)
    return builds


def test_static_design_forms_neither_the_plant_nor_gang_of_four(monkeypatch, tmp_path, capsys):
    builds = count_plant_builds(monkeypatch)
    counts = count_calls(monkeypatch, LOOP_FORMERS)
    # cy = 0 on the stable plant, whose stability is read off det d: its one
    # loop (maps I, 0, P, 0), formed from the plant's fraction, gives the dc
    # gain, the achieved maps and the certificate
    assert main(["static-decouple", str(PROBLEMS / "example_static_decouple.ini")]) == 0
    assert (len(builds), counts) == (
        0, {"gang_of_four": 0, "_youla_feedback": 0, "_fraction_loop": 1}
    )

    builds.clear()
    counts.update(dict.fromkeys(counts, 0))
    problem = tmp_path / "unstable.ini"
    problem.write_text(f"[plant]\nmatrix = {UNSTABLE_2X2}\n[design]\nlambda = 1, 0; 0, 1\n")
    assert main(["static-decouple", str(problem)]) == 0
    # the central controller's loop
    assert (len(builds), counts) == (
        0, {"gang_of_four": 0, "_youla_feedback": 1, "_fraction_loop": 0}
    )
    out = capsys.readouterr().out
    assert "dc gain:\n  [ 1  0 ]\n  [ 0  1 ]" in out


def test_static_design_takes_the_youla_loops_verdict(monkeypatch):
    # an unstable plant's central loop is decided on its one denominator,
    # and the plant's on det d by the Routh test alone, so the Hurwitz
    # tests left are the entries of the achieved y/r (the "closed loop
    # stable" certificate); the loop's four maps, formed for G(0), are not
    # tested
    plant = load_problem(str(PROBLEMS / "example_decouple.ini")).plant
    smfd = stable_mfd(right_coprime_mfd(plant), shift=1)
    lam = RatMat.identity(2)
    static_decoupling(smfd, lam)  # the analysis forms its parts once
    counts = count_calls(monkeypatch, ["is_hurwitz"], twodof.stability)
    res = static_decoupling(smfd, lam)
    assert counts == {"is_hurwitz": 4}
    assert res.verdict and all(c.passed for c in res.certificates)


def test_unity_parameter_takes_its_loops_verdict(monkeypatch, capsys):
    # x' is read off the Youla loop k = 0 admits, one Routh test on that
    # loop's denominator; the unity restriction makes 4 Hurwitz tests (each
    # one Routh test) and one Routh test more, on det d for its scalar
    # divisibility form; the printed verdict is the unity loop record's, one
    # Routh test on its denominator, and the four maps, formed to check
    # y/r = n'@x', are not tested
    problem = str(PROBLEMS / "example_unity.ini")
    assert main(["unity-parameter", problem]) == 0
    expected = capsys.readouterr().out
    counts = count_calls(monkeypatch, ["is_hurwitz", "_routh_is_hurwitz"], twodof.stability)
    assert main(["unity-parameter", problem]) == 0
    assert counts == {"is_hurwitz": 4, "_routh_is_hurwitz": 7}
    out = capsys.readouterr().out
    assert out == expected and out.endswith("internal stability: stable\n")


def test_static_decoupling_refuses_a_singular_dc_gain_of_the_central_loop(monkeypatch):
    # the plant is nonsingular at s = 0, but its central cy has a pole at
    # the origin, so G(0) = n'(0) @ v(0) is singular: v(oo) is nonsingular,
    # so k_oo = 0, and the design passes over k = 0 to k(1) = k_0 =
    # [0 0; 0 1], which makes v(0) - k@nl'(0), and so the dc gain,
    # nonsingular
    pf = load_problem(str(PROBLEMS / "example_static_decouple_scanned.ini"))
    smfd = stable_mfd(right_coprime_mfd(pf.plant))
    k_0 = RatMat([[0, 0], [0, 1]])
    line = [RatMat([[0, 0], [0, t]]) for t in range(1, 5)]  # k(t) = t*k_0, t = 1, ..., 4
    assert list(twodof.stabilize._candidates(smfd)) == [None, *line]
    counts = count_calls(monkeypatch, ["_youla_feedback"])
    res = static_decoupling(smfd, parse_matrix(pf.design["lambda"]))
    assert counts == {"_youla_feedback": 2}
    assert res.configuration.cy == youla_controller(pf.plant, k_0)
    assert res.verdict and all(c.passed for c in res.certificates)


def count_inversions(monkeypatch):
    calls = []
    original = RatMat.inv

    def inv(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RatMat, "inv", inv)
    return calls


# label -> (plant, shift, design of the plant's StableMFD, (gang_of_four,
# _youla_feedback, _fraction_loop, RatMat.inv) calls): fixed instances of
# each design, whose one closed loop is formed without inverting a RatMat;
# the denominator assignments form d_t**-1 from the adjugate they take, and
# only the unity loop inverts a RatMat, d, for its stability condition
DESIGNS = {
    "static, stable plant": (
        "1/(s+1), 1/(s+2); 0, 1/(s+3)", 1,
        lambda smfd: static_decoupling(smfd, RatMat.identity(2)), (0, 0, 1, 2),
    ),
    "static, unstable plant": (
        UNSTABLE_2X2, 1, lambda smfd: static_decoupling(smfd, RatMat.identity(2)), (0, 1, 0, 2)
    ),
    "denominator, unity": (
        "1/(s-2)", 1,
        lambda smfd: denominator_assignment_unity(
            smfd.source, PolyMat([[Poly((Fraction(-1, 2), Fraction(-1, 4)))]])
        ),
        (0, 0, 1, 1),
    ),
    "denominator, direct": (
        "1/(s-2)", 1,
        lambda smfd: denominator_assignment_direct(smfd.source, PolyMat([[S + 2 * ONE]])),
        (0, 0, 1, 0),
    ),
    "model matching": (
        "(s-1)*(s+2)/(s-2)^2", 2,
        lambda smfd: model_matching(smfd, parse_matrix("(s-1)/(s+1)^2")), (0, 1, 0, 0),
    ),
    # the control target is solved by eliminating [d | m], not through d**-1
    "model matching, control target": (
        "(s-1)*(s+2)/(s-2)^2", 2,
        lambda smfd: model_matching(
            smfd, parse_matrix("(s-1)/(s+1)^2"), parse_matrix("(s-2)^2/((s+1)^2*(s+2))")
        ),
        (0, 1, 0, 0),
    ),
}


def test_each_design_forms_its_loop_once(monkeypatch):
    instances = [
        (label, stable_mfd(right_coprime_mfd(parse_matrix(plant)), shift=shift), design)
        for label, (plant, shift, design, _) in DESIGNS.items()
    ]
    counts = count_calls(monkeypatch, LOOP_FORMERS)
    inversions = count_inversions(monkeypatch)
    seen = {}
    for label, smfd, design in instances:
        counts.update(dict.fromkeys(counts, 0))
        inversions.clear()
        res = design(smfd)
        assert all(c.passed for c in res.certificates), label
        assert res.verdict, label
        assert counts["_youla_feedback"] + counts["_fraction_loop"] == 1, label
        seen[label] = (*counts.values(), len(inversions))
    assert seen == {label: case[3] for label, case in DESIGNS.items()}


def test_cli_designs_form_each_loop_once(monkeypatch, tmp_path, capsys):
    problem = tmp_path / "unstable.ini"
    problem.write_text(f"[plant]\nmatrix = {UNSTABLE_2X2}\n[design]\nlambda = 1, 0; 0, 1\n")
    # argv -> (gang_of_four, _youla_feedback, _fraction_loop, RatMat.inv)
    # calls; assign-denominator forms a second loop in its closed-loop
    # cross-check, from the printed controller through gang_of_four, and
    # inverts d alone, for the unity loop's stability condition;
    # unity-parameter forms the Youla loop that admits its k, then the
    # unity loop that certifies cff
    runs = {
        ("static-decouple", str(PROBLEMS / "example_static_decouple.ini")): (0, 0, 1, 2),
        ("static-decouple", str(problem)): (0, 1, 0, 2),
        ("assign-denominator", str(PROBLEMS / "example_assign_denominator.ini")): (1, 0, 2, 1),
        ("unity-parameter", str(PROBLEMS / "example_unity.ini")): (0, 1, 1, 2),
    }
    counts = count_calls(monkeypatch, LOOP_FORMERS)
    inversions = count_inversions(monkeypatch)
    for argv, expected in runs.items():
        counts.update(dict.fromkeys(counts, 0))
        inversions.clear()
        assert main(list(argv)) == 0
        assert (*counts.values(), len(inversions)) == expected, argv
    capsys.readouterr()


def record_determinants(monkeypatch):
    """The matrix of each determinant a design takes: ``polymat_det`` and
    ``_polymat_det_adj`` as ``synthesis`` and ``polyalg`` (so ``RatMat.inv``)
    call them.  ``_fraction_loop``'s det M, of the loop it forms, is not
    recorded."""
    taken = []
    for name in ("polymat_det", "_polymat_det_adj"):
        original = getattr(twodof.polyalg, name)

        def wrapper(a, _fn=original):
            taken.append(a)
            return _fn(a)

        for mod in (twodof.polyalg, twodof.synthesis):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return taken


# (plant, design, d_t, the matrices whose determinant it takes, in order)
DENOMINATOR_DESIGNS = [
    ("1/(s-2)", denominator_assignment_unity, "-1/4*s - 1/2",
     ["n", "d_t", "d_t + n", "d"]),
    ("1/(s-2)", denominator_assignment_direct, "s + 3", ["n", "d_t"]),
    ("1/(s-2), 0; 0, 1/(s-3)", denominator_assignment_unity,
     "-1/4*s - 1/2, 0; 0, -1/4*s - 1/4", ["n", "d_t", "d_t + n", "d"]),
    (UNSTABLE_2X2, denominator_assignment_direct, "s^2 + 2*s + 1, 0; 0, s^2 + 3*s + 2",
     ["n", "d_t"]),
]


@pytest.mark.parametrize("plant, design, d_t, expected", DENOMINATOR_DESIGNS)
def test_denominator_assignment_takes_each_determinant_once(
    monkeypatch, plant, design, d_t, expected
):
    mfd = right_coprime_mfd(parse_matrix(plant))
    d_t = parse_poly_matrix(d_t)
    taken = record_determinants(monkeypatch)
    res = design(mfd, d_t)
    assert all(c.passed for c in res.certificates) and res.verdict
    named = {"n": mfd.n, "d": mfd.d, "d_t": d_t, "d_t + n": d_t + mfd.n}
    assert taken == [named[key] for key in expected]


def test_unity_design_inverts_the_plant_denominator_once(monkeypatch):
    smfd = stable_mfd(right_coprime_mfd(parse_matrix("(s-1)*(s+2)/(s-2)^2")), shift=2)
    inversions = count_inversions(monkeypatch)
    xprime = find_admissible_unity_xprime(smfd)
    assert unity_feedback_admissible(smfd, xprime)
    unity_feedback_controller(smfd, xprime)
    # d, for d'**-1 and the plant, then f = (I + x'@n') @ d'**-1
    assert len(inversions) == 2
    assert inversions[0] == smfd.source.d.to_ratmat()


@pytest.mark.parametrize("name", ["example_unity.ini", "example_assign_denominator.ini"])
def test_unity_parameter_factors_the_plant_denominator_once(monkeypatch, capsys, name):
    counts = count_calls(monkeypatch, ["irreducible_factors"], twodof.stability)
    assert main(["unity-parameter", str(PROBLEMS / name)]) == 0
    capsys.readouterr()
    # det d alone: its unstable factor, s - 2, is picked by the Routh test
    assert counts == {"irreducible_factors": 1}


def test_factor_command_factors_the_zero_and_pole_polynomials_once(monkeypatch, capsys):
    counts = count_calls(monkeypatch, ["factor_list"], twodof.zfactor)
    assert main(["factor", str(PROBLEMS / "example_match.ini")]) == 0
    capsys.readouterr()
    # (s - 1)(s + 2) and (s - 2)^2; each factor's tag comes from a Routh test
    assert counts == {"factor_list": 2}


def test_refused_matching_factors_only_the_parameter_denominator(monkeypatch):
    problem = load_problem(PROBLEMS / "example_match_reject.ini")
    assert problem.options == {"shift": "2"}
    smfd = stable_mfd(right_coprime_mfd(problem.plant), shift=2)
    t = parse_matrix(problem.design["t"])
    counts = count_calls(monkeypatch, ["factor_list"], twodof.zfactor)
    with pytest.raises(DesignObstruction) as err:
        model_matching(smfd, t)
    # the verdict on x names s - 1, and the zero reason is read off it
    assert counts == {"factor_list": 1}
    assert err.value.reasons[0].startswith("plant unstable zero at s = 1 is not inherited")


@pytest.mark.parametrize("plant, zero", [
    ("(s-1)/(s+1)^2, 0; 0, 1/(s+2)", "1"),
    ("(s^2-2)/(s+1)^3", "1.41421"),
])
def test_refused_inversion_factors_only_the_parameter_denominators(monkeypatch, plant, zero):
    smfd = stable_mfd(right_coprime_mfd(parse_matrix(plant)), shift=1)
    counts = count_calls(monkeypatch, ["factor_list"], twodof.zfactor)
    with pytest.raises(DesignObstruction) as err:
        inverse_problem(smfd)
    # the verdict on x' = n'**-1 names every unstable zero factor of the plant
    assert counts == {"factor_list": 1}
    assert err.value.reasons[1] == f"plant has an unstable zero at s = {zero}"


def test_refused_decoupling_factors_only_the_parameter_denominators(monkeypatch):
    smfd = stable_mfd(right_coprime_mfd(parse_matrix("(s-1)/(s+1)^2, 0; 0, 1/(s+2)")), shift=1)
    target = parse_matrix("1/(s+1)").entry(0, 0)
    counts = count_calls(monkeypatch, ["factor_list"], twodof.zfactor)
    with pytest.raises(DesignObstruction) as err:
        diagonal_decoupling(smfd, (target, target))
    # the verdict on x' names s - 1, and the zero reason is read off it
    assert counts == {"factor_list": 1}
    assert err.value.reasons[0] == "plant unstable zero at s = 1 must be a zero of target(s) 1"
