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

``STRAND_CAP_CELLS`` caps the cells of the strand route: the generator sets
that are admissible in Lyubeznik's sense, the empty set among them.  They
are counted as the search finds them, and the route refuses as soon as the
count passes the cap, before any rank.  A set of k generators has at most
2^k admissible subsets, so every ideal with ``k <= 18`` stays in reach, and
larger ones are refused only when the search finds more than 2^18 cells.
"""

SUBSET_CAP_N = 16
STRAND_CAP_CELLS = 1 << 18
SHELLING_CAP_FACETS = 12
MINOR_CAP_N = 12
SEQ_CM_CAP_N = 10


class CapExceeded(RuntimeError):
    """An instance is too large for the requested exact computation."""
