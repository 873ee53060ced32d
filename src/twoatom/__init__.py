"""Dissipative dynamics and entanglement of two closely spaced two-level atoms."""

from . import entanglement, model, propagator, qmat, states
from .entanglement import *
from .model import *
from .propagator import *
from .qmat import *
from .states import *

__version__ = "0.1.0"

__all__ = sorted(
    entanglement.__all__ + model.__all__ + propagator.__all__ + qmat.__all__ + states.__all__
)
