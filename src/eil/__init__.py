"""Extremal incidence-graph laboratory over prime fields."""

from .errors import GraphFormatError, ParameterError

__version__ = "0.1.0"
