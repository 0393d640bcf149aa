"""Transaction lifecycles: order-execute, execute-order-validate, storage-replicated."""

from .records import PhaseTimings, TxnRecord
from .occ import occ_validate
from .run import Arrival, RunResult, drive_and_collect, run_pipeline, txn_report

__all__ = [
    "Arrival",
    "PhaseTimings",
    "RunResult",
    "TxnRecord",
    "drive_and_collect",
    "occ_validate",
    "run_pipeline",
    "txn_report",
]
