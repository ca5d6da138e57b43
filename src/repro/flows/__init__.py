"""Message and flow model.

The paper characterises the avionics traffic as a set of *messages*:

* **periodic** messages ``(T_i, b_i)`` where ``T_i`` is the transfer period
  and ``b_i`` the message length,
* **sporadic** messages ``(T_j, b_j)`` where ``T_j`` is the minimal
  inter-arrival time between two consecutive instances and ``b_j`` the
  length; at most one sporadic message of each type is generated per station
  per 20 ms minor frame.

Each message carries a real-time constraint (maximal response time) and is
mapped to one of the four 802.1p priority classes the paper defines.  A
*flow* is a message routed from its source station to a destination through
the switched network.

Public API
----------
* :class:`Message`, :class:`MessageKind` — the traffic characterisation,
* :class:`PriorityClass`, :func:`assign_priority` — the paper's class policy,
* :class:`Flow` — a routed message,
* :class:`MessageSet` — a validated collection with per-station /
  per-priority views and utilization accounting,
* :class:`ReplicatedMessageSet` — lazy ``k``-fold station replication with
  arithmetic aggregate shortcuts (the scalability ladder's workhorse),
* :class:`MessageArrays` — struct-of-arrays numeric view consumed by the
  vectorised analytic paths,
* :class:`VirtualLink` — AFDX-style (BAG, s_max) description of a shaped
  flow, convertible to a token bucket.
"""

from repro.flows.messages import Message, MessageKind
from repro.flows.priorities import (
    DEADLINE_URGENT,
    PERIOD_MAJOR_FRAME,
    PERIOD_MINOR_FRAME,
    PriorityClass,
    assign_priority,
)
from repro.flows.arrays import MessageArrays
from repro.flows.flow import Flow
from repro.flows.message_set import MessageSet, ReplicatedMessageSet
from repro.flows.virtual_link import VirtualLink

__all__ = [
    "Message",
    "MessageKind",
    "PriorityClass",
    "assign_priority",
    "DEADLINE_URGENT",
    "PERIOD_MINOR_FRAME",
    "PERIOD_MAJOR_FRAME",
    "Flow",
    "MessageSet",
    "ReplicatedMessageSet",
    "MessageArrays",
    "VirtualLink",
]
