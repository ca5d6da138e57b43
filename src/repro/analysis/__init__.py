"""Evaluation harness: one module per experiment of DESIGN.md.

Every experiment is a plain function (or small class) that takes a message
set / topology and returns structured rows; the benchmark harness under
``benchmarks/`` and the examples call these functions and render the rows
with :mod:`repro.reporting`.

* :mod:`~repro.analysis.paper_model` — **E1 / Figure 1**: the paper's
  single-multiplexer case study, FCFS vs strict priority, per-class bounds
  against the real-time constraints,
* :mod:`~repro.analysis.violations` — **E2**: FCFS constraint-violation
  table across link capacities,
* :mod:`~repro.analysis.baseline1553` — **E3**: the MIL-STD-1553B baseline
  (schedule feasibility, utilization, simulated response times),
* :mod:`~repro.analysis.comparison` — **E4**: 1553B vs Ethernet-FCFS vs
  Ethernet-priority side-by-side worst-case response times,
* :mod:`~repro.analysis.validation` — **E5**: analytic bound vs simulated
  worst delay on the switched network,
* :mod:`~repro.analysis.jitter` — **E6**: per-class jitter under the two
  Ethernet policies and on the 1553B bus,
* :mod:`~repro.analysis.sensitivity` — **E7**: ablations on ``t_techno``,
  shaper burst sizing and preemption,
* :mod:`~repro.analysis.scalability` — **E8**: feasibility of each
  approach as the case-study traffic is replicated.

The per-experiment entry points above all bound delays with the paper's
network calculus.  The competing WCRT backends live behind the
bound-engine registry (:mod:`~repro.analysis.engines`), re-exported
here: :class:`BoundEngine` is the protocol, :func:`get_engine` /
:func:`resolve_engines` / :func:`engine_names` query the registry
(``calculus``, ``holistic``, ``trajectory``), :func:`register_engine`
adds a backend, and :class:`EngineResult` / :class:`EngineSpec` are the
value types engine verdicts and selections travel as.

To evaluate whole families of configurations (capacities, topologies,
replication ladders) in one batch with shared-intermediate memoization, use
the campaign layer (:mod:`repro.campaigns`) or ``repro campaign`` instead
of looping over these entry points by hand.
"""

from repro.analysis.engines import (
    DEFAULT_ENGINE,
    ENGINE_CHOICES,
    BoundEngine,
    EngineResult,
    EngineSpec,
    all_engines,
    engine_names,
    get_engine,
    register_engine,
    resolve_engines,
)
from repro.analysis.paper_model import ClassBoundRow, PaperCaseStudy
from repro.analysis.violations import ViolationRow, fcfs_violation_table
from repro.analysis.baseline1553 import Baseline1553Report, baseline_1553_report
from repro.analysis.comparison import ComparisonRow, technology_comparison
from repro.analysis.validation import BoundValidationRow, validate_bounds
from repro.analysis.jitter import JitterRow, jitter_comparison
from repro.analysis.sensitivity import (
    BurstScalingRow,
    PreemptionRow,
    TechnologyDelayRow,
    burst_scaling_sweep,
    preemption_ablation,
    technology_delay_sweep,
)
from repro.analysis.buffers import (
    PortBufferRequirement,
    buffer_requirements,
    validate_buffer_requirements,
)

__all__ = [
    "PaperCaseStudy",
    "ClassBoundRow",
    "BoundEngine",
    "EngineResult",
    "EngineSpec",
    "DEFAULT_ENGINE",
    "ENGINE_CHOICES",
    "register_engine",
    "get_engine",
    "engine_names",
    "all_engines",
    "resolve_engines",
    "ViolationRow",
    "fcfs_violation_table",
    "Baseline1553Report",
    "baseline_1553_report",
    "ComparisonRow",
    "technology_comparison",
    "BoundValidationRow",
    "validate_bounds",
    "JitterRow",
    "jitter_comparison",
    "TechnologyDelayRow",
    "BurstScalingRow",
    "PreemptionRow",
    "technology_delay_sweep",
    "burst_scaling_sweep",
    "preemption_ablation",
    "PortBufferRequirement",
    "buffer_requirements",
    "validate_buffer_requirements",
]
