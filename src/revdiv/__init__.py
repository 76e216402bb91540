"""Reversible integer-divider synthesis, simulation and cost estimation.

Import each name from its module; this package root holds only ``__version__``."""
__version__ = "0.1.0"
