"""Size caps for exhaustive-enumeration features and parsed input.

Walking orbits and building full functional graphs touch every element of
F_{p^n}; the default cap keeps that tractable.  The environment variable
QKFORGE_CAP, a positive integer, replaces the default field-size cap.
`ffpoly.parse_poly` refuses a degree above MAX_POLY_DEGREE before it
allocates the coefficients.  Depth pairs need no cap: `cm_arith.depths`
works modulo 2^B, B = O(log pn).
"""

from __future__ import annotations

import os

from .errors import UsageError

DEFAULT_FIELD_CAP = 2**22

# The largest degree a parsed polynomial may have (fixed, no override).
MAX_POLY_DEGREE = 2**16

ENV_FIELD_CAP = "QKFORGE_CAP"


def field_cap() -> int:
    """The field-size cap: QKFORGE_CAP if set, else the default."""
    env = os.environ.get(ENV_FIELD_CAP)
    if env is None:
        return DEFAULT_FIELD_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(f"{ENV_FIELD_CAP} must be a positive integer, got {env!r}")
    return cap
