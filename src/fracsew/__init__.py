"""fracsew: fractional Brownian paths, sewing-rate experiments, integrals,
local time, and Young SDE probes."""

from . import errors, fbm, fsde, integrals, local_time, numerics, sewing
from .errors import *  # noqa: F403
from .fbm import *  # noqa: F403
from .fsde import *  # noqa: F403
from .integrals import *  # noqa: F403
from .local_time import *  # noqa: F403
from .numerics import *  # noqa: F403
from .sewing import *  # noqa: F403

__version__ = "0.1.0"

# each public name is listed once, in its layer module's __all__
__all__ = [name for layer in (errors, fbm, fsde, integrals, local_time,
                              numerics, sewing)
           for name in layer.__all__] + ["__version__"]
