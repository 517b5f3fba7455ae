"""Size caps for exhaustive-enumeration features and parsed input.

Building a full functional graph touches every element of F_{p^n}; the
default cap keeps that tractable.  The environment variable
QKFORGE_CAP, a positive integer, replaces the default field-size cap.
`ffpoly.parse_poly` and the record reader (`SequenceRecord.from_json_dict`)
refuse a degree above MAX_POLY_DEGREE before they build the polynomial,
and `seqgen.generate_sequence` refuses a step whose transform would pass
it (up front, from the schedule, for C2, C3 and C3-).  A packed row table
of a map z -> c z^p (c = 1 for Rabin's test in `ffpoly.is_irreducible`;
for `ffpoly.equal_degree_factorize`, the twist c of the split's field,
d^2 w bytes at the factor degree d) is refused above MAX_ROW_TABLE_BYTES
before its first row is made, and a chain of over MAX_CHAIN_STEPS steps
before its first.  `sweep-lemmas` refuses a bound above its MAX_SWEEP_* cap
before any work.  A single depth pair needs no cap: `cm_arith.depths` works
modulo 2^B, B = O(log pn).
"""

from __future__ import annotations

import os

from .errors import UsageError

DEFAULT_FIELD_CAP = 2**22

# The largest degree a parsed polynomial or a chain's transform may have
# (fixed, no override).
MAX_POLY_DEGREE = 2**16

# The most steps a chain may take (fixed, no override): a C1 chain may stay
# at one degree for ever.  Far above the 40 the tests and benchmark ask for.
MAX_CHAIN_STEPS = 2**10

# The most doublings `sweep-lemmas --max-i` may ask for (fixed, no
# override): its degrees reach 2^(max_i + 1) * max_m, and its cost grows
# faster than max_i^2.
MAX_SWEEP_DOUBLINGS = 64

# The largest `sweep-lemmas --max-p`, and `--max-n` or `--max-m` (fixed, no
# override): its time and memory grow about linearly in each.  Far above the
# 600, 10 and 5 the tests and benchmark ask for.
MAX_SWEEP_PRIME = 2**13
MAX_SWEEP_DEGREE = 2**8

# The most bytes a packed row table may take (fixed, no override): n^2
# slots of 1 to 8 or more bytes mod a degree-n modulus, so at p = 53 near
# n = 8,192: Rabin's test at that degree, a split at twice it (n = d).
MAX_ROW_TABLE_BYTES = 2**28

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
