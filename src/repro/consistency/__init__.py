"""Event-driven consistent updates: traces, happens-before, checkers."""

from .checker import NESChecker, check_trace_against_nes
from .traces import (
    HappensBefore,
    NetworkTrace,
    TraceMembership,
    TraceValidationError,
    packet_trace_follows,
    packet_trace_in_traces,
    position_event_masks,
)
from .update import (
    CorrectnessReport,
    EventDrivenUpdate,
    check_update_correctness,
    first_occurrences,
)

__all__ = [
    "NetworkTrace",
    "TraceValidationError",
    "HappensBefore",
    "packet_trace_follows",
    "packet_trace_in_traces",
    "position_event_masks",
    "TraceMembership",
    "EventDrivenUpdate",
    "first_occurrences",
    "CorrectnessReport",
    "check_update_correctness",
    "NESChecker",
    "check_trace_against_nes",
]
