"""Per-layer counts and self times, measured from outside the package.

``install`` replaces the public functions and methods of each layer
module with timing wrappers: the module attribute, every name another
``twodof`` module imported it under, and the methods of the module's
classes.  Nothing under ``src/`` changes.  A layer's self time is the time
during which one of its wrapped calls is the innermost wrapped call
running, i.e. its wrapped time minus the wrapped calls into other layers
nested within it.  Wrappers pass straight through while the tracer is not
active, so the benchmark's own checks are never counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("polyalg", "stability", "factor", "stabilize", "synthesis", "verify", "cli")

# Arithmetic and evaluation dunders are real work; other dunders
# (construction, hashing, formatting) are left alone.
_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__matmul__", "__truediv__", "__rtruediv__", "__floordiv__", "__mod__",
    "__divmod__", "__pow__", "__neg__", "__call__",
}
# Accessors cheaper than the wrapper itself; timing them would only
# measure the wrapper.
_ACCESSORS = {"is_zero", "degree", "coeff", "is_constant", "entry"}
# Stat names that differ from "<layer>.<function>" or "<layer>.<class>_<method>".
_RENAMED = {
    ("polyalg", "RatFn", "__post_init__"): "polyalg.ratfn",
    ("polyalg", "RatMat", "__matmul__"): "polyalg.ratmat_matmul",
    ("polyalg", "RatMat", "inv"): "polyalg.ratmat_inv",
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.calls: Counter[str] = Counter()
        self.inclusive_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.events: Counter[str] = Counter()
        self.coeff_bits_max = 0
        self._depth: Counter[str] = Counter()
        self._layer: str | None = None
        self._mark = 0.0

    def wrap(self, fn, key: str, layer: str, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            outer_layer = self._layer
            if outer_layer is not None:
                self.self_s[outer_layer] += start - self._mark
            self._layer, self._mark = layer, start
            self.calls[key] += 1
            outermost = self._depth[key] == 0
            self._depth[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.self_s[layer] += end - self._mark
                self._layer, self._mark = outer_layer, end
                self._depth[key] -= 1
                if outermost:
                    self.inclusive_s[key] += end - start
            if hook is not None:
                hook(self, args, result)
                self._mark = perf_counter()  # the hook's own time goes to no layer
            return result

        return wrapper

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
            "self_s": dict(self.self_s),
            "events": dict(self.events),
            "coeff_bits_max": self.coeff_bits_max,
        }

    def merge(self, stats: dict) -> None:
        self.calls.update(stats["calls"])
        self.inclusive_s.update(stats["inclusive_s"])
        self.self_s.update(stats["self_s"])
        self.events.update(stats["events"])
        self.coeff_bits_max = max(self.coeff_bits_max, stats["coeff_bits_max"])


def _poly_bits(p) -> int:
    deg = p.degree()
    if deg is None:
        return 0
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in (p.coeff(k) for k in range(deg + 1))
    )


def _gcd_hook(tracer: Tracer, args, result) -> None:
    tracer.coeff_bits_max = max(tracer.coeff_bits_max, *(_poly_bits(a) for a in args[:2]))
    if not result.is_constant():
        tracer.events["polyalg.poly_gcd.nontrivial"] += 1


def _diophantine_hook(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.events["factor.poly_row_diophantine.solved"] += 1


_HOOKS = {"polyalg.poly_gcd": _gcd_hook, "factor.poly_row_diophantine": _diophantine_hook}


def _key(layer: str, name: str, cls: str | None = None) -> str:
    if (layer, cls, name) in _RENAMED:
        return _RENAMED[(layer, cls, name)]
    if layer == "cli" and name.startswith("parse_"):
        return "cli.parse"
    if cls is None:
        return f"{layer}.{name}"
    return f"{layer}.{cls.lower()}_{name.strip('_')}"


def _wrap_class(tracer: Tracer, cls, layer: str) -> None:
    for name, attr in list(vars(cls).items()):
        wanted = name in _DUNDERS or (
            not name.startswith("_") and name not in _ACCESSORS
        ) or (cls.__name__ == "RatFn" and name == "__post_init__")
        if not wanted:
            continue
        key = _key(layer, name, cls.__name__)
        if isinstance(attr, (classmethod, staticmethod)):
            setattr(cls, name, type(attr)(tracer.wrap(attr.__func__, key, layer)))
        elif isinstance(attr, types.FunctionType):
            setattr(cls, name, tracer.wrap(attr, key, layer, _HOOKS.get(key)))


def install() -> Tracer:
    """Wrap every layer of the already importable ``twodof`` package."""
    tracer = Tracer()
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"twodof.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if not issubclass(obj, BaseException):
                    _wrap_class(tracer, obj, layer)
            elif isinstance(obj, types.FunctionType):
                key = _key(layer, name)
                wrapped = tracer.wrap(obj, key, layer, _HOOKS.get(key))
                replaced[id(obj)] = wrapped
                setattr(mod, name, wrapped)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "twodof" or mod_name.startswith("twodof."):
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and not name.startswith("__"):
                    setattr(mod, name, replaced[id(obj)])
    return tracer


# metric name -> (kind, stat names): how the metric is read off the tracer
PER_LAYER = {
    **{f"{layer}.self_ms": ("self", layer) for layer in LAYERS},
    "polyalg.poly_gcd.calls": ("calls", "polyalg.poly_gcd"),
    "polyalg.ratfn.created": ("calls", "polyalg.ratfn"),
    "polyalg.poly_gcd.nontrivial_ratio": ("ratio", "polyalg.poly_gcd.nontrivial", "polyalg.poly_gcd"),
    "polyalg.coeff_bits_max": ("bits",),
    "polyalg.ratmat_matmul.ms": ("ms", "polyalg.ratmat_matmul"),
    "polyalg.ratmat_inv.ms": ("ms", "polyalg.ratmat_inv"),
    "polyalg.hermite.ms": ("ms", "polyalg.hermite"),
    "polyalg.linsolve_exact.calls": ("calls", "polyalg.linsolve_exact"),
    "polyalg.linsolve_exact.ms": ("ms", "polyalg.linsolve_exact"),
    "stability.is_hurwitz.calls": ("calls", "stability.is_hurwitz"),
    "stability.irreducible_factors.calls": ("calls", "stability.irreducible_factors"),
    "stability.irreducible_factors.ms": ("ms", "stability.irreducible_factors"),
    "factor.stable_mfd.calls": ("calls", "factor.stable_mfd"),
    "factor.poly_row_diophantine.calls": ("calls", "factor.poly_row_diophantine"),
    "factor.poly_row_diophantine.solved_ratio": (
        "ratio", "factor.poly_row_diophantine.solved", "factor.poly_row_diophantine"
    ),
    "factor.zeros_and_poles.ms": ("ms", "factor.zeros_and_poles"),
    "stabilize.youla_controller.ms": ("ms", "stabilize.youla_controller"),
    "stabilize.gang_of_four.calls": ("calls", "stabilize.gang_of_four"),
    "synthesis.model_matching.ms": ("ms", "synthesis.model_matching"),
    "verify.closed_loop.ms": ("ms", "verify.closed_loop"),
    "cli.parse.ms": ("ms", "cli.parse"),
}
UNITS = {"self": "ms/op", "ms": "ms/op", "calls": "calls/op", "ratio": "ratio", "bits": "bits"}


def per_layer_metrics(tracer: Tracer, ops: int, speed: float) -> dict:
    """Every per-layer metric of the traced ops, counts and times per op;
    times are multiplied by ``speed`` to bring them to the reference speed."""
    out = {}
    for name, (kind, *stats) in PER_LAYER.items():
        if kind == "self":
            value = tracer.self_s[stats[0]] * 1000 * speed / ops
        elif kind == "ms":
            value = tracer.inclusive_s[stats[0]] * 1000 * speed / ops
        elif kind == "calls":
            value = tracer.calls[stats[0]] / ops
        elif kind == "ratio":
            total = tracer.calls[stats[1]]
            value = tracer.events[stats[0]] / total if total else 0.0
        else:
            value = tracer.coeff_bits_max
        out[name] = {"value": value, "unit": UNITS[kind]}
    return out
