"""Desk-scale simulation library for preference identification.

Finite ordered spaces, preferences as total preorders, binary-menu choice
experiments, rationalization machinery (consistency, extensions,
adversarial constructions, parametric fits, diameter of the
rationalization set), chain-anchored utilities, and a seeded experiment
harness with a counterexample gallery.

The public API is `__version__` and the names in the `__all__` list of
each module below; the package re-exports exactly those.
"""

from . import errors, experiments, harness, preferences, rationalize, spaces, utility
from ._version import __version__
from .errors import *
from .experiments import *
from .harness import *
from .preferences import *
from .rationalize import *
from .spaces import *
from .utility import *

__all__ = [
    "__version__",
    *errors.__all__,
    *spaces.__all__,
    *preferences.__all__,
    *experiments.__all__,
    *rationalize.__all__,
    *utility.__all__,
    *harness.__all__,
]
