"""Extremal incidence-graph laboratory over prime fields."""

from .errors import GraphFormatError, ParameterError
from .incidence import build_incidence, count_ktt_via_lines
from .subgraph import is_ksm_free

__version__ = "0.1.0"
