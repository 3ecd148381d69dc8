"""Gradient extremum seeking for a quadratic map whose input is the spatial
integral of a diffusion actuator, with motion-planned probing signals and a
backstepping compensation controller.  The package re-exports each module's
``__all__``, the one declaration of the public API."""

from .analysis import *
from .controller import *
from .dither import *
from .filters import *
from .heat import *
from .loop import *
from .svgplot import *

__version__ = "0.1.0"
