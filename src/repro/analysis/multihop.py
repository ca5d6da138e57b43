"""Alias kept for one benchmark hook; nothing else imports it.

The benchmark tracer times ``GraphPathAnalysis.analyze`` of this module
as its ``analysis.multihop.analyze`` layer.
"""
from repro.core.endtoend import EndToEndAnalysis as GraphPathAnalysis
