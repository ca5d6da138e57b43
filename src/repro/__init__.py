"""Real-time communication over switched Ethernet for military applications.

A reproduction of Mifdaoui, Frances & Fraboul (CoNEXT 2005): worst-case
delay analysis of token-bucket shaped avionics traffic over Full-Duplex
Switched Ethernet with FCFS or 802.1p strict-priority multiplexing, compared
against the MIL-STD-1553B bus it is meant to replace.

Top-level convenience imports cover the most common entry points; the
sub-packages are documented in DESIGN.md:

>>> from repro import generate_real_case, PaperCaseStudy
>>> study = PaperCaseStudy(generate_real_case())
>>> study.priority_meets_all_constraints()
True

Batched what-if analysis goes through the campaign layer (README.md shows
the matching ``repro campaign`` CLI):

>>> from repro import CampaignRunner, builtin_scenarios
>>> result = CampaignRunner().run(builtin_scenarios())
>>> len(result.rows()) >= 8
True

The reproduction report — every registered experiment rendered into the
committed ``artifacts/`` tree, drift-checked by CI — is the report layer
(``repro report`` on the command line):

>>> from repro import ReportPipeline, all_experiments
>>> len(all_experiments()) >= 10
True
"""

from repro import units
from repro.analysis.paper_model import PaperCaseStudy
from repro.campaigns import (
    CampaignResult,
    CampaignRunner,
    Scenario,
    WorkloadSpec,
    builtin_scenarios,
)
from repro.core.multiplexer import (
    FcfsMultiplexerAnalysis,
    StrictPriorityMultiplexerAnalysis,
)
from repro.core.endtoend import EndToEndAnalysis
from repro.ethernet.network_sim import EthernetNetworkSimulator
from repro.flows.flow import Flow
from repro.flows.message_set import MessageSet
from repro.fuzz import FuzzCampaign, FuzzResult, ScenarioGenerator
from repro.flows.messages import Message, MessageKind
from repro.flows.priorities import PriorityClass, assign_priority
from repro.milstd1553.bus import Milstd1553BusSimulator
from repro.milstd1553.schedule import MajorFrameSchedule
from repro.reports import (
    ExperimentSpec,
    ReportPipeline,
    all_experiments,
    register_experiment,
)
from repro.store import ResultStore
from repro.topology.builders import (
    dual_switch_topology,
    single_switch_star,
    tree_topology,
)
from repro.topology.network import Network
from repro.workloads.realcase import RealCaseParameters, generate_real_case

__version__ = "1.0.0"

__all__ = [
    "units",
    "Message",
    "MessageKind",
    "MessageSet",
    "Flow",
    "PriorityClass",
    "assign_priority",
    "FcfsMultiplexerAnalysis",
    "StrictPriorityMultiplexerAnalysis",
    "EndToEndAnalysis",
    "PaperCaseStudy",
    "Network",
    "single_switch_star",
    "dual_switch_topology",
    "tree_topology",
    "EthernetNetworkSimulator",
    "MajorFrameSchedule",
    "Milstd1553BusSimulator",
    "RealCaseParameters",
    "generate_real_case",
    "Scenario",
    "WorkloadSpec",
    "CampaignRunner",
    "CampaignResult",
    "builtin_scenarios",
    "ScenarioGenerator",
    "FuzzCampaign",
    "FuzzResult",
    "ExperimentSpec",
    "ReportPipeline",
    "all_experiments",
    "register_experiment",
    "ResultStore",
    "__version__",
]
