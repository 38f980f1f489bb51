"""The orbit test as a scan of every integer shift up to |x| + |y| + 1, the
reference for `orbits.orbit_equivalent`.  It builds the whole range, so
call it only where |x| + |y| is small."""

import math

from qsphere.orbits import ORBIT_TOL, _is_standard


def orbit_equivalent(a, b):
    if _is_standard(a) or _is_standard(b):
        return (_is_standard(a) and _is_standard(b), None)
    x, y = float(a), float(b)
    reach = int(math.ceil(abs(x) + abs(y))) + 1
    for m in sorted(range(-reach, reach + 1), key=lambda v: (abs(v), v)):
        if abs(abs(x + m) - abs(y)) <= ORBIT_TOL:
            return (True, m)
    return (False, None)
