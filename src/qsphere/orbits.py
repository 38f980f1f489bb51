"""Orbit arithmetic and Picard classification of the sphere parameters.
These are plain arithmetic on the parameters, with no operator, so the
orbit and picard commands load no numpy."""

import math

STANDARD = "standard"
ORBIT_TOL = 1e-12     # |x + m| against |y| in orbit_equivalent
INTEGER_TOL = 1e-9    # distance to the nearest integer in picard_group


def _is_standard(a) -> bool:
    return isinstance(a, str) and a.lower() in (STANDARD, "inf", "infinity")


def orbit_equivalent(a, b):
    """Whether two sphere parameters lie on one equivalence orbit; finite
    parameters are equivalent iff some integer shift matches them up to sign.
    Returns (flag, witness integer or None)."""
    if _is_standard(a) or _is_standard(b):
        return (_is_standard(a) and _is_standard(b), None)
    x, y = float(a), float(b)
    # x + m = +-|y| up to ORBIT_TOL < 1/2 leaves one integer per sign; the
    # smallest |m|, then the smaller m, is the witness
    shifts = (abs(y) - x, -abs(y) - x)
    near = {round(t) for t in shifts if math.isfinite(t)}
    for m in sorted(near, key=lambda v: (abs(v), v)):
        if abs(abs(x + m) - abs(y)) <= ORBIT_TOL:
            return (True, m)
    return (False, None)


def picard_group(a) -> str:
    """Self-equivalence class group of one sphere: Z for the standard sphere,
    Z2 at integer parameters, trivial otherwise.

    Integer detection classifies the input parameter, it is not a numerical
    discovery.
    """
    if _is_standard(a):
        return "Z"
    x = float(a)
    return "Z2" if abs(x - round(x)) <= INTEGER_TOL else "trivial"
