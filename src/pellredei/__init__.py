"""Exact solutions of x**2 - d*y**2 = 1 and the algebra that makes them fast.

The package keeps every computation in Z, Q, or Q(sqrt(d)) -- there is
no floating point anywhere.  The period unit comes from half a period
of the continued fraction of sqrt(d) by a product tree; the minimal
solution is that unit or its square.  Every power of a + b*sqrt(d) --
the n-th solution under every strategy, a hyperbola point's power, the
witness's Redei value -- is one call of the Redei kernel, in O(log n)
products; the convergent walk stays the independent witness.
A small CLI (`pellredei`) exposes both, plus a benchmark contrasting the
linear fold with the logarithmic route.  The public API is the union of
the modules' ``__all__`` lists, each name declared where it is defined.
"""

from . import contfrac, exact, hyperbola, projline, redei, solver
from .contfrac import *
from .exact import *
from .hyperbola import *
from .projline import *
from .redei import *
from .solver import *

__version__ = "0.1.0"

__all__ = (
    contfrac.__all__
    + exact.__all__
    + hyperbola.__all__
    + projline.__all__
    + redei.__all__
    + solver.__all__
)
