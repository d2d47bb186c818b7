"""Fault tolerance infrastructure above FTMP.

Object groups, active replication with duplicate suppression, replica
management with consistent-cut state transfer, message logging/replay,
and fault-injection scenario helpers.
"""

from .chaos import SCENARIOS, ChaosEvent, ChaosPlan
from .checkpointing import Checkpoint, CheckpointingLog, CheckpointStore
from .failover import LogReplayer, ReplayReport
from .fault_injection import FaultInjector, Injection
from .oracles import (
    Violation,
    check_buffer_gc_safety,
    check_convergence,
    check_fifo,
    check_membership_agreement,
    check_no_duplicates,
    check_quiescence,
    check_total_order,
    check_virtual_synchrony,
    run_history_oracles,
)
from .message_log import LoggedRequest, MessageLog
from .object_group import ObjectGroupRegistry, ObjectGroupSpec
from .passive import PassiveReplicaController, STATE_UPDATE_OP
from .replica_manager import ProcessorHost, ReplicaManager

__all__ = [
    "ChaosEvent",
    "ChaosPlan",
    "SCENARIOS",
    "Violation",
    "check_total_order",
    "check_fifo",
    "check_no_duplicates",
    "check_virtual_synchrony",
    "check_convergence",
    "check_membership_agreement",
    "check_buffer_gc_safety",
    "check_quiescence",
    "run_history_oracles",
    "ObjectGroupSpec",
    "ObjectGroupRegistry",
    "ReplicaManager",
    "ProcessorHost",
    "MessageLog",
    "LoggedRequest",
    "FaultInjector",
    "Injection",
    "LogReplayer",
    "ReplayReport",
    "PassiveReplicaController",
    "Checkpoint",
    "CheckpointStore",
    "CheckpointingLog",
    "STATE_UPDATE_OP",
]
