"""Feasibility caps for the exponential algorithms.

Every cap guards an enumeration whose cost is exponential in the capped
quantity.  Exceeding a cap raises :class:`CapExceeded`; sweep drivers catch
it and record the instance as skipped instead of hanging.  The ambient size
itself is not capped: monomials are Python-int bitmasks, and the interval
route is polynomial.

``SUBSET_CAP_N`` caps every enumeration of the 2^n vertex subsets (the faces
of the homology route, the faces of a complex whose homology is taken) and
the enumeration of minimal vertex covers.  The cover enumeration is
output-sensitive, but the number of minimal covers can itself grow
exponentially in n (on the length-2 path it grows like the Padovan
numbers), so it keeps ``n <= 16``.
"""

SUBSET_CAP_N = 16
TAYLOR_CAP_K = 18
SHELLING_CAP_FACETS = 12
MINOR_CAP_N = 12
SEQ_CM_CAP_N = 10


class CapExceeded(RuntimeError):
    """An instance is too large for the requested exact computation."""
