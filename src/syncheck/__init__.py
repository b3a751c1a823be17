"""Static deadlock checker for sequential models of synchronous
point-to-point message passing, with differential-testing oracles and a
benchmark harness."""

from .engine import Engine, EngineError, check, check_with_engine
from .model import (
    BlockedEntry,
    Deadlock,
    DeadlockReport,
    Envelope,
    Illegal,
    IllegalReason,
    MessageOccurrence,
    Mode,
    Model,
    NoDeadlock,
    Role,
    Sequence,
    validate_static,
)
from .oracle import (
    CycleCheckResult,
    SimulationResult,
    StateCapExceeded,
    cycle_check,
    simulate_exhaustive,
)
from .parser import ParseError, parse_abstract, parse_dsl, parse_model, render_abstract, render_dsl
from .signatures import SignatureSpace

__version__ = "0.1.0"

__all__ = [
    "BlockedEntry",
    "CycleCheckResult",
    "Deadlock",
    "DeadlockReport",
    "Engine",
    "EngineError",
    "Envelope",
    "Illegal",
    "IllegalReason",
    "MessageOccurrence",
    "Mode",
    "Model",
    "NoDeadlock",
    "ParseError",
    "Role",
    "Sequence",
    "SignatureSpace",
    "SimulationResult",
    "StateCapExceeded",
    "check",
    "check_with_engine",
    "cycle_check",
    "parse_abstract",
    "parse_dsl",
    "parse_model",
    "render_abstract",
    "render_dsl",
    "simulate_exhaustive",
    "validate_static",
]
