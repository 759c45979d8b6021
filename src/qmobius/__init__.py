"""Exact dynamics of rational maps (ax+b)/(cx+d) at the real and p-adic places.

The library works entirely in exact rational arithmetic: valuations,
norms and digit expansions (padic), the maps themselves with their
named families and closed-form iterates (mobius), per-place and adelic
fixed-point classification (classify), and orbit-based dynamics
(orbit).  The qmobius console script in cli exposes all of it.
"""

from . import classify, mobius, orbit, padic
from .classify import *
from .mobius import *
from .orbit import *
from .padic import *

__version__ = "0.1.0"

__all__ = padic.__all__ + mobius.__all__ + classify.__all__ + orbit.__all__
