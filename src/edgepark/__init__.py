"""Smart-parking edge pipeline: occupancy accounting, gateway simulator,
edge agent, cloud hub, and a deterministic simulation harness."""

from .occupancy import (
    BayState,
    BayStatus,
    ClockRegressionError,
    EventKind,
    InvariantViolationError,
    RollupRecord,
    RollupWindow,
    apply_event,
    invalidate_statuses,
    occupation_rate,
    rollup,
    update_occupation_time,
)
from .oracle import TraceOrderError, oracle_occupancy

__version__ = "0.1.0"

__all__ = [
    "BayState",
    "BayStatus",
    "ClockRegressionError",
    "EventKind",
    "InvariantViolationError",
    "RollupRecord",
    "RollupWindow",
    "TraceOrderError",
    "apply_event",
    "invalidate_statuses",
    "occupation_rate",
    "oracle_occupancy",
    "rollup",
    "update_occupation_time",
    "__version__",
]
