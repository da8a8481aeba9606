"""Winding number of a closed triangle mesh about a point, for the test suite.

The faces' solid angles seen from q, by the formula of van Oosterom and
Strackee (IEEE Trans. Biomed. Eng. 30, 1983), sum to 4 pi times the number
of times the mesh wraps q; a face wound the wrong way, or a hole, moves the
sum off an integer.
"""

import math

import numpy as np


def _dot(u, v):
    return np.einsum("ij,ij->i", u, v)


def winding_number(mesh, q) -> float:
    """Sum of the faces' signed solid angles about q, divided by 4 pi.

    A face a, b, c (vectors from q) subtends 2 atan2(a . (b x c),
    |a||b||c| + (a . b)|c| + (a . c)|b| + (b . c)|a|).
    """
    r = mesh.vertices - np.asarray(q, dtype=float)
    length = np.sqrt(_dot(r, r))
    a, b, c = (r[i] for i in mesh.faces.T)
    la, lb, lc = (length[i] for i in mesh.faces.T)
    triple = _dot(a, np.cross(b, c))
    denominator = la * lb * lc + _dot(a, b) * lc + _dot(a, c) * lb + _dot(b, c) * la
    return float(np.arctan2(triple, denominator).sum() / (2.0 * math.pi))
