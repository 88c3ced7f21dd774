"""Closed-loop evaluation: exact loop maps per configuration, equality
certificates against a desired response, and step-response simulation as
a numerical cross-check on the symbolic results.
"""

from __future__ import annotations

from fractions import Fraction

from .polyalg import RatFn, RatMat, common_denominator, poly_divmod
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

class ClosedLoopReport:
    """The loop's maps y/r and u/r, and its internal maps as (name, map,
    verdict) triples."""

    __slots__ = ("t_yr", "t_ur", "internal_maps", "well_posed")

    def __init__(self, t_yr: RatMat, t_ur: RatMat, internal_maps: tuple, well_posed: bool):
        self.t_yr, self.t_ur = t_yr, t_ur
        self.internal_maps, self.well_posed = internal_maps, well_posed


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


class SimulationTrace:
    """Sampled step responses: outputs[input_channel][output][sample]."""

    __slots__ = ("time", "outputs", "inputs", "step_size")

    def __init__(self, time: tuple, outputs: tuple, inputs: tuple, step_size: float):
        self.time, self.outputs, self.inputs, self.step_size = time, outputs, inputs, step_size

    def to_csv(self, channel: int = 0) -> str:
        chan = self.outputs[channel]
        header = "t," + ",".join(f"y{i + 1}" for i in range(len(chan)))
        lines = [header]
        for k, t in enumerate(self.time):
            row = [_fmt(t)] + [_fmt(chan[i][k]) for i in range(len(chan))]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def final_values(self, channel: int = 0) -> tuple[float, ...]:
        return tuple(series[-1] for series in self.outputs[channel])


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _column_realization(col: list[RatFn]):
    """Controllable-canonical (A, b, C, d) for one input column."""
    import numpy as np

    den = common_denominator(col)[0]
    order = den.degree() or 0
    feed = np.array([float(e.at_infinity()) for e in col])
    c_rows = []
    for entry in col:
        strict = entry.strict_part()
        scale, rem = poly_divmod(den, strict.den)
        if not rem.is_zero():
            raise ArithmeticError("column denominator does not divide its lcm")
        scaled_num = strict.num * scale
        c_rows.append([float(scaled_num.coeff(k)) for k in range(order)])
    a = np.zeros((order, order))
    if order:
        a[:-1, 1:] = np.eye(order - 1)
        a[-1, :] = [-float(den.coeff(k)) for k in range(order)]
    b = np.zeros(order)
    if order:
        b[-1] = 1.0
    return a, b, np.array(c_rows).reshape(len(col), order), feed


def simulate_step(t: RatMat, horizon: float, dt: float) -> SimulationTrace:
    """Unit-step responses of a proper, stable transfer matrix on a
    fixed grid: one column realization per input, zero-order hold via
    the exponential of [[A, b], [0, 0]]*dt."""
    # imported here: numpy and scipy.linalg cost more than the rest of
    # the package to import, and only simulation needs them
    import numpy as np
    from scipy.linalg import expm

    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be positive")
    count = int(round(horizon / dt))
    if count + 1 > _MAX_SAMPLES:
        raise ValueError(f"{count + 1} samples exceed the cap of {_MAX_SAMPLES}")
    if not t.is_proper():
        raise ValueError("cannot simulate an improper transfer matrix")
    verdict = matrix_is_stable(t)
    if not verdict:
        raise ValueError("cannot simulate an unstable transfer matrix: " + verdict.describe())
    p_rows, m_cols = t.shape
    times = tuple(k * dt for k in range(count + 1))
    all_outputs = []
    for j in range(m_cols):
        col = [t.entry(i, j) for i in range(p_rows)]
        a, b, c, d = _column_realization(col)
        order = a.shape[0]
        if order == 0:
            series = tuple(tuple(float(d[i]) for _ in times) for i in range(p_rows))
            all_outputs.append(series)
            continue
        block = np.zeros((order + 1, order + 1))
        block[:order, :order] = a * dt
        block[:order, order] = b * dt
        m = expm(block)
        ad = m[:order, :order]
        bd = m[:order, order]
        x = np.zeros(order)
        samples = np.empty((p_rows, count + 1))
        for k in range(count + 1):
            samples[:, k] = c @ x + d
            x = ad @ x + bd
        all_outputs.append(tuple(tuple(row) for row in samples))
    labels = tuple(f"unit step at input {j + 1}" for j in range(m_cols))
    return SimulationTrace(
        time=times, outputs=tuple(all_outputs), inputs=labels, step_size=dt
    )


def dc_gain(t: RatMat) -> tuple[tuple[Fraction, ...], ...]:
    """Exact value of t at s = 0."""
    vals = t.eval_at(Fraction(0))
    if any(v is None for row in vals for v in row):
        raise ValueError("pole at the origin")
    return vals
