"""Quasi-entropy laboratory for linear computation in the rotation model.

The package tracks entropy-like potential functionals of an evolving
matrix (and its inverse transpose) along programs built from plane
rotations and row scalings, synthesizes near-identity perturbations of
the Walsh-Hadamard transform inside that gate set, and stress-tests the
inequalities that turn per-gate potential growth into size lower bounds.
"""

from . import gates, hadamard, lemma, perturb, potential
from .gates import *
from .hadamard import *
from .lemma import *
from .perturb import *
from .potential import *

__version__ = "0.1.0"

# Each module declares its public names once, in its own __all__.
__all__ = [*gates.__all__, *hadamard.__all__, *lemma.__all__,
           *perturb.__all__, *potential.__all__]
