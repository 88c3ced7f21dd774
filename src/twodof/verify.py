"""Closed-loop evaluation: exact loop maps per configuration, equality
certificates against a desired response, and step-response simulation as
a numerical cross-check on the symbolic results.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .polyalg import RatFn, RatMat, common_denominator
from .stability import StabilityVerdict, matrix_is_stable
from .stabilize import TwoDofConfig, gang_of_four
from .synthesis import (
    Certificate,
    ClosedLoopConfig,
    FeedbackDirectRConfig,
    FfFbRConfig,
    UnityFeedbackConfig,
)

__all__ = [
    "ClosedLoopReport",
    "SimulationTrace",
    "closed_loop",
    "certify",
    "simulate_step",
    "dc_gain",
]


# The loop's maps y/r and u/r, and its internal maps as (name, map, verdict)
# triples.
ClosedLoopReport = namedtuple("ClosedLoopReport", "t_yr t_ur internal_maps well_posed")


def _feedback_and_reference(p: RatMat, config: ClosedLoopConfig) -> tuple[RatMat, RatMat]:
    if isinstance(config, TwoDofConfig):
        return config.cy, config.cr
    if isinstance(config, FfFbRConfig):
        return config.cff @ config.cfb, config.cff @ config.r
    if isinstance(config, UnityFeedbackConfig):
        return config.cff, config.cff
    if isinstance(config, FeedbackDirectRConfig):
        return config.cfb, RatMat.identity(p.shape[1])
    raise TypeError(f"unknown configuration {type(config).__name__}")


def closed_loop(p: RatMat, config: ClosedLoopConfig) -> ClosedLoopReport:
    """Exact closed-loop maps of the configuration around plant p.

    Every configuration reduces to the pair (cy, cr) acting as
    u = cy@y + cr@r; the loop is ill posed when I - cy@p is singular.
    The internal maps and their verdicts are those of ``gang_of_four``.
    """
    cy, cr = _feedback_and_reference(p, config)
    maps = gang_of_four(p, cy)
    t_ur = maps.sens @ cr
    t_yr = p @ t_ur
    internal = tuple(zip(maps.NAMES, maps, maps.verdicts))
    well_posed = all(mat.is_proper() for mat in maps)
    return ClosedLoopReport(
        t_yr=t_yr, t_ur=t_ur, internal_maps=internal, well_posed=well_posed
    )


def certify(report: ClosedLoopReport, desired_t: RatMat) -> tuple[Certificate, ...]:
    """Exact equality of the achieved response against the desired one,
    plus the four internal verdicts; failures come back as failed
    certificates, never exceptions."""
    certs = [
        Certificate(
            "closed-loop response equals the desired t",
            StabilityVerdict(report.t_yr == desired_t),
        ),
        Certificate("loop well posed", StabilityVerdict(report.well_posed)),
    ]
    for name, _, verdict in report.internal_maps:
        certs.append(Certificate(f"internal map {name} proper and stable", verdict))
    return tuple(certs)


# -- simulation ---------------------------------------------------------------

# a trace holds a float per sample and output, so an unbounded grid (say a
# horizon of 1e9 at a step of 1e-3) would exhaust memory before it ran
_MAX_SAMPLES = 10**6


class SimulationTrace(namedtuple("SimulationTrace", "time outputs inputs step_size")):
    """Sampled step responses: outputs[input_channel][output][sample]."""

    __slots__ = ()

    def to_csv(self, channel: int = 0) -> str:
        chan = self.outputs[channel]
        lines = ["t," + ",".join(f"y{i + 1}" for i in range(len(chan)))]
        lines += [",".join(f"{x:.12g}" for x in row) for row in zip(self.time, *chan)]
        return "\n".join(lines) + "\n"

    def final_values(self, channel: int = 0) -> tuple[float, ...]:
        return tuple(series[-1] for series in self.outputs[channel])


def _column_realization(col: list[RatFn]):
    """Controllable-canonical realization of one input column as lists of
    floats: the rows [A | b] (b the last unit vector), C and d."""
    den, nums = common_denominator(col)
    order = den.degree() or 0
    # each entry's strictly proper part is nums[k] % den over den
    c_rows = [[float((num % den).coeff(k)) for k in range(order)] for num in nums]
    ab = [[float(k == i + 1) if k == order or i < order - 1 else -float(den.coeff(k))
           for k in range(order + 1)] for i in range(order)]
    return ab, c_rows, [float(e.at_infinity()) for e in col]


def _matmul(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _expm1(m: list[list[float]]) -> list[list[float]]:
    """exp(m) - I by scaling and squaring (Moler and Van Loan, SIAM Review
    45, 2003): m / 2**k has a row-sum norm of at most 1/2, where 18 Taylor
    terms leave a remainder below 1e-21, and each of k squarings maps
    e - I to 2(e - I) + (e - I)**2.  Kept apart from I, a hold close to I
    keeps its relative accuracy."""
    k = max(0, math.frexp(max(sum(map(abs, row)) for row in m))[1] + 1)
    out = term = m = [[x / 2**k for x in row] for row in m]
    for j in range(2, 19):
        term = [[x / j for x in row] for row in _matmul(term, m)]
        out = [[x + y for x, y in zip(r, t)] for r, t in zip(out, term)]
    for _ in range(k):
        out = [[2 * x + y for x, y in zip(r, t)] for r, t in zip(out, _matmul(out, out))]
    return out


def simulate_step(t: RatMat, horizon: float, dt: float) -> SimulationTrace:
    """Unit-step responses of a proper, stable transfer matrix on a
    fixed grid: one column realization per input, zero-order hold via
    the exponential of [[A, b], [0, 0]]*dt."""
    if not (0 < horizon < math.inf and 0 < dt < math.inf):  # nan compares false
        raise ValueError("horizon and dt must be positive and finite")
    steps = horizon / dt  # inf once the quotient overflows, which round() refuses
    count = round(steps) if steps < _MAX_SAMPLES else steps
    if count + 1 > _MAX_SAMPLES:
        raise ValueError(f"{count + 1:.7g} samples exceed the cap of {_MAX_SAMPLES}")
    if not t.is_proper():
        raise ValueError("cannot simulate an improper transfer matrix")
    verdict = matrix_is_stable(t)
    if not verdict:
        raise ValueError("cannot simulate an unstable transfer matrix: " + verdict.describe())
    p_rows, m_cols = t.shape
    times = tuple(k * dt for k in range(count + 1))
    all_outputs = []
    for j in range(m_cols):
        ab, c, d = _column_realization([t.entry(i, j) for i in range(p_rows)])
        order = len(ab)
        # rows [Ad - I | bd] of exp([[A, b], [0, 0]] * dt) - I
        hold = _expm1([[x * dt for x in row] for row in ab] + [[0.0] * (order + 1)])[:order]
        x, samples = [0.0] * order, []
        for _ in range(count + 1):
            samples.append([sum(map(mul, row, x)) + di for row, di in zip(c, d)])
            x = [xi + (sum(map(mul, row, x)) + row[order]) for xi, row in zip(x, hold)]
        all_outputs.append(tuple(zip(*samples)))
    labels = tuple(f"unit step at input {j + 1}" for j in range(m_cols))
    return SimulationTrace(times, tuple(all_outputs), labels, dt)


def dc_gain(t: RatMat) -> tuple[tuple[Fraction, ...], ...]:
    """Exact value of t at s = 0."""
    vals = t.eval_at(Fraction(0))
    if any(v is None for row in vals for v in row):
        raise ValueError("pole at the origin")
    return vals
