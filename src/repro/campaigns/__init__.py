"""Scenario campaigns: declarative, batched, memoized what-if analysis.

The paper evaluates one hand-built configuration; this package turns that
into a first-class *campaign* layer so "as many scenarios as you can
imagine" run in one pass:

* :mod:`~repro.campaigns.scenario` — :class:`Scenario`,
  :class:`WorkloadSpec` and :class:`TopologySpec`: frozen, hashable specs
  describing one experiment (traffic recipe, topology, capacity,
  ``t_techno``, multiplexing policies),
* :mod:`~repro.campaigns.registry` — the named catalogue
  (:func:`register`, :func:`get`, :func:`select`,
  :func:`builtin_scenarios`) seeded with the paper's case study, the
  Figure-1 capacity sweep, multi-switch topologies, overload, inflated
  bursts, a 1553B-rate migration check and the scalability ladder,
* :mod:`~repro.campaigns.cache` — :class:`AnalysisCache`: memoizes the
  intermediates scenarios share (base message sets, per-class
  :class:`~repro.core.multiplexer.ClassAggregate` statistics, binding
  deadlines) with per-level hit/miss counters,
* :mod:`~repro.campaigns.runner` — :class:`CampaignRunner` /
  :class:`CampaignResult`: batch execution producing structured
  :class:`CampaignRow` results renderable as ASCII, markdown or CSV.

The ``repro campaign`` CLI subcommand is the front end of this package.
"""

from repro.campaigns.cache import AnalysisCache, CacheStats
from repro.campaigns.registry import (
    builtin_scenarios,
    get,
    names,
    register,
    select,
)
from repro.campaigns.runner import (
    CampaignResult,
    CampaignRow,
    CampaignRunner,
    ScenarioResult,
)
from repro.campaigns.scenario import (
    POLICIES,
    Scenario,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "Scenario",
    "WorkloadSpec",
    "TopologySpec",
    "POLICIES",
    "AnalysisCache",
    "CacheStats",
    "CampaignRunner",
    "CampaignResult",
    "CampaignRow",
    "ScenarioResult",
    "register",
    "get",
    "select",
    "names",
    "builtin_scenarios",
]
