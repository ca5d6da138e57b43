"""E6 — jitter comparison (the paper's future-work item).

The conclusion of the paper announces jitter as the next QoS guarantee to
study, noting that jitter is *"inherently low on 1553B applications"* because
of the rigid cyclic schedule.  This experiment measures peak-to-peak delivery
jitter (max − min latency) per priority class for:

* the 1553B cyclic bus,
* switched Ethernet with the FCFS multiplexer,
* switched Ethernet with the strict-priority multiplexer,

using the staggered-release scenario (the synchronised scenario would hide
jitter by making every instance experience the same contention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import units
from repro.analysis.engines.base import ScenarioInputs
from repro.analysis.validation import lower, simulate
from repro.flows.message_set import MessageSet
from repro.flows.priorities import PriorityClass, assign_priority
from repro.milstd1553.bus import Milstd1553BusSimulator

__all__ = ["JitterRow", "jitter_comparison"]


@dataclass(frozen=True)
class JitterRow:
    """Delivery jitter of one priority class under one technology.

    Jitter is computed **per message stream** (max − min of that stream's
    delivery latencies) and the row reports the worst and the mean stream
    jitter of the class — aggregating samples across streams would instead
    measure how different the streams are from each other, which is not what
    the paper's jitter discussion is about.
    """

    technology: str
    priority: PriorityClass
    #: Worst per-stream peak-to-peak jitter in the class (seconds).
    worst_jitter: float
    #: Mean per-stream peak-to-peak jitter in the class (seconds).
    mean_jitter: float
    #: Worst delivery latency observed in the class (seconds).
    worst_latency: float
    #: Number of message streams contributing at least two samples.
    streams: int

    @property
    def jitter(self) -> float:
        """Alias for :attr:`worst_jitter` (the headline figure)."""
        return self.worst_jitter


def _rows_from_stream_samples(technology: str,
                              per_stream: dict[str, list[float]],
                              stream_class: dict[str, PriorityClass]
                              ) -> list[JitterRow]:
    """Aggregate per-stream latency samples into per-class jitter rows."""
    per_class: dict[PriorityClass, list[tuple[float, float]]] = {}
    for name, samples in per_stream.items():
        if len(samples) < 2:
            continue
        jitter = max(samples) - min(samples)
        per_class.setdefault(stream_class[name], []).append(
            (jitter, max(samples)))
    rows = []
    for cls, values in sorted(per_class.items()):
        jitters = [jitter for jitter, __ in values]
        rows.append(JitterRow(
            technology=technology, priority=cls,
            worst_jitter=max(jitters),
            mean_jitter=math.fsum(jitters) / len(jitters),
            worst_latency=max(worst for __, worst in values),
            streams=len(values)))
    return rows


def _ethernet_jitter(inputs: ScenarioInputs, policy: str, duration: float,
                     seed: int) -> list[JitterRow]:
    results = simulate(inputs, policy, scenario="staggered", seed=seed,
                       duration=duration)
    label = "ethernet-fcfs" if policy == "fcfs" else "ethernet-priority"
    per_stream = {name: recorder.samples
                  for name, recorder in results.flow_latencies.items()}
    stream_class = {m.name: assign_priority(m) for m in inputs.unsized}
    return _rows_from_stream_samples(label, per_stream, stream_class)


def _milstd1553_jitter(message_set: MessageSet, duration: float,
                       seed: int) -> list[JitterRow]:
    simulator = Milstd1553BusSimulator(message_set,
                                       sporadic_scenario="random", seed=seed)
    results = simulator.run(duration=duration)
    per_stream = {name: recorder.samples
                  for name, recorder in results.message_latencies.items()}
    stream_class = {m.name: assign_priority(m) for m in message_set}
    return _rows_from_stream_samples("mil-std-1553b", per_stream,
                                     stream_class)


def jitter_comparison(message_set: MessageSet,
                      capacity: float = units.mbps(10),
                      technology_delay: float = units.us(16),
                      duration: float = units.ms(640),
                      seed: int = 1) -> list[JitterRow]:
    """Per-class jitter under 1553B, Ethernet-FCFS and Ethernet-priority."""
    inputs = lower(message_set, capacity=capacity,
                   technology_delay=technology_delay)
    rows = _milstd1553_jitter(message_set, duration, seed)
    for policy in ("fcfs", "strict-priority"):
        rows.extend(_ethernet_jitter(inputs, policy, duration, seed))
    return rows
