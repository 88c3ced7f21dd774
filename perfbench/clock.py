"""Times scaled to a reference machine speed.

The machine this benchmark was built on is shared: the same fixed
pure-Python work runs up to twice as slow from one five-second window to
the next, with CPU time tracking wall time, so raw times of one run say
as much about the neighbours as about the program.  A short fixed kernel
of the kind of work the package does (Euclid's gcd on polynomials with
``Fraction`` coefficients, in the benchmark's own code) is timed next to
every measured interval; dividing the interval by the kernel's slowdown
against REFERENCE_S gives the time the work would have taken at the
reference speed.  The kernel does not touch the package, so a change to
the package moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

from oracles import poly_from_roots, poly_gcd

# The kernel's time on the reference machine when it runs at full speed.
REFERENCE_S = 0.003
_A = poly_from_roots([Fraction(1, 3), -2, 5, Fraction(-7, 2), 4, -1, 6])
_B = poly_from_roots([Fraction(2, 5), -3, 1, Fraction(5, 3), -4, 2])


def slowdown() -> float:
    """How many times slower than the reference speed the machine runs now."""
    start = perf_counter()
    for _ in range(6):
        poly_gcd(_A, _B)
    return (perf_counter() - start) / REFERENCE_S
