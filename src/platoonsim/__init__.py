"""Microscopic platoon simulation with certified safety envelopes.

The package simulates strings of connected vehicles under a min-type
car-following law and two baselines (a cooperative adaptive controller
and a forward-looking optimal-velocity law), certifies trajectories
against analytic headway/velocity envelopes, and measures the response
to perturbed lead-vehicle inputs.

Typical entry points: :func:`load_preset` or :func:`load_config` to get
a :class:`Scenario`, :func:`simulate` to run it, :func:`build_envelope`
plus :func:`certify_trajectory` to check it.
"""

__version__ = "0.1.0"

from .core import *
from .integrator import *
from .models import *
from .perturbation import *
from .presets import *
from .profiles import *
from .safety import *
from .scenario_io import *
from .sweep import *

__all__ = ["__version__"]
__all__ += core.__all__
__all__ += integrator.__all__
__all__ += models.__all__
__all__ += perturbation.__all__
__all__ += presets.__all__
__all__ += profiles.__all__
__all__ += safety.__all__
__all__ += scenario_io.__all__
__all__ += sweep.__all__
