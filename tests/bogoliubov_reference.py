"""Half angles of the Bogoliubov rotation, written apart from ``bosefluct.model``.

The rotation ``a_k = cosh a b_k + sinh a b*_-k`` diagonalizes one superfluid
mode, with ``cosh 2a = (eps + g) / E`` and ``sinh 2a = -g / E`` for
``g = c^2 v(k)`` and ``E = sqrt(eps (eps + 2 g))``. Tests hold the library's
two-point averages, and the states built from them, against these angles.
"""

import math


def half_angles(eps, g):
    """``(cosh a, sinh a)``; ``sinh 2a = 2 sinh a cosh a`` fixes the sign of ``sinh a``."""
    energy = math.sqrt(eps * (eps + 2.0 * g))
    cosh_a = math.sqrt(((eps + g) / energy + 1.0) / 2.0)
    return cosh_a, -g / (2.0 * energy * cosh_a)
