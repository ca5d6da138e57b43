"""Golden cross-engine rows of the whole builtin campaign.

``CampaignRunner(engines="all")`` shares one lowering, one routed
template and the runner's own calculus rows between every engine ×
policy evaluation of a scenario.  The digest below is the
canonical-JSON SHA-256 of every engine row of the full catalogue,
recorded before any of that sharing existed and refreshed once, when
sums over port members became correctly rounded (``math.fsum``), so
the shared path must reproduce the per-engine, per-policy recomputation
byte for byte — memoized and naive alike.
"""

from __future__ import annotations

import pytest

from repro.campaigns import CampaignRunner, select
from repro.store import fingerprint

#: ``fingerprint([[scenario, engine, policy, class, repr(bound), stable]
#: ...])`` over the 360 engine rows of ``select("all")``.
ENGINE_ROWS_DIGEST = (
    "66d6d33e20b7c1e8e271a2f61c04cee0432a6774c2b32324430ea3db5a73c58d")


@pytest.mark.parametrize("memoize", [True, False],
                         ids=["memoized", "naive"])
def test_every_engine_row_matches_golden(memoize):
    result = CampaignRunner(memoize=memoize, engines="all").run(
        select("all"))
    rows = [[row.scenario, row.engine, row.policy, row.priority.name,
             repr(row.bound), row.stable] for row in result.engine_rows()]
    assert len(rows) == 360
    assert fingerprint(rows) == ENGINE_ROWS_DIGEST
