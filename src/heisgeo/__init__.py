"""Numerical geometry of the 3-dimensional Heisenberg group.

The group R^3 with product (x,y,z)*(x',y',z') = (x+x', y+y', z+z'+xy'-yx')
carries the left-invariant Riemannian metric that makes the translated
coordinate frame X = (1,0,-y), Y = (0,1,x), T = (0,0,1) orthonormal.  This
package provides the group algebra, the metric with its connection and
curvature, exact and numerically integrated geodesics, Riemannian and
Cygan distance functions, and triangle-mesh emission for geodesic spheres
and related surfaces, together with a deterministic command-line tool.

The public names are those of each module's __all__.
"""

__version__ = "0.1.0"

from . import core, distances, geodesics, meshing
from .core import *
from .distances import *
from .geodesics import *
from .meshing import *

__all__ = ["__version__", *core.__all__, *geodesics.__all__, *distances.__all__, *meshing.__all__]
