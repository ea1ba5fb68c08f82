"""Small shared utilities: validation helpers, table formatting, Pareto fronts."""

from repro.utils.validation import check_positive, check_non_negative, check_in_range
from repro.utils.tables import format_table
from repro.utils.pareto import pareto_front

__all__ = [
    "pareto_front",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "format_table",
]
