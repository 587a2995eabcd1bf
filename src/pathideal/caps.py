"""Feasibility caps for the exponential algorithms.

Every cap guards an enumeration whose cost is exponential in the capped
quantity.  Exceeding a cap raises :class:`CapExceeded`; sweep drivers catch
it and record the instance as skipped instead of hanging.  The ambient size
itself is not capped: monomials are Python-int bitmasks, and the interval
route is polynomial.
"""

HOCHSTER_CAP_N = 16
TAYLOR_CAP_K = 18
SHELLING_CAP_FACETS = 12
MINOR_CAP_N = 12
SEQ_CM_CAP_N = 10
HOMOLOGY_CAP_N = 16
COVER_CAP_N = 16
# The homology route enumerates faces as numpy int64 bitmasks, so it refuses
# larger ambient sizes whatever cap the caller passes.
INT64_MASK_N = 62


class CapExceeded(RuntimeError):
    """An instance is too large for the requested exact computation."""
