"""Gradient extremum seeking for a quadratic map whose input is the spatial
integral of a diffusion actuator, with motion-planned probing signals and a
backstepping compensation controller.  The package re-exports each module's
``__all__``, the one declaration of the public API."""

import os as _os

# The loop's products are too small for a second BLAS thread, yet OpenBLAS starts
# its pool inside `import numpy`: ~120 ms of CPU per command on 2 cores, ~70 ms of
# wall time when its worker shares the main thread's core.  Start NumPy with one
# thread unless the caller set one of the variables OpenBLAS reads, then leave
# os.environ as it was.  Once NumPy is imported, this does nothing.
_pin = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys()
if _pin:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _numpy
finally:
    if _pin:
        del _os.environ["OPENBLAS_NUM_THREADS"]
del _os, _numpy, _pin

from .analysis import *
from .controller import *
from .dither import *
from .filters import *
from .heat import *
from .loop import *
from .svgplot import *

__version__ = "0.1.0"
