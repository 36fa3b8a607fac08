"""Noise-adaptive entanglement witnessing in phase space.

Generalized quasiprobability functions with a tunable order parameter,
noise channels acting as order-parameter rescalings, a bounded
CHSH-shaped witness, and search drivers that map out its violation
regions under detection loss and thermal decoherence.

The package re-exports each module's ``__all__``; ``cli`` and
``validate`` stay submodules.
"""

from . import noise, qp_core, search, states, witness
from .noise import *
from .qp_core import *
from .search import *
from .states import *
from .witness import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += qp_core.__all__
__all__ += states.__all__
__all__ += noise.__all__
__all__ += witness.__all__
__all__ += search.__all__
