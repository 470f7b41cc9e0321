"""Communication-intensity metrics (Section IV, Table I).

Two metrics formally characterize an application's communication intensity:

* **Message injection rate** — total message volume divided by execution
  time: the average bandwidth an application demands if its traffic were
  injected steadily.
* **Peak ingress volume** — the consecutive message volume handed to the
  network in one burst (e.g. all stencil neighbours at once), i.e. the peak
  short-term bandwidth demand.

The injection rate is measured from a standalone run's
:class:`ApplicationRecord`; the peak ingress volume is analytic
(``Application.peak_ingress_bytes``).  Table I itself is built from stored
runs by :func:`repro.analysis.reports.table1_rows`.
"""

from __future__ import annotations

from repro.stats.appstats import ApplicationRecord

__all__ = ["injection_rate_gbps"]


def injection_rate_gbps(record: ApplicationRecord) -> float:
    """Measured message injection rate in GB/s (bytes sent / execution time).

    With times in nanoseconds and sizes in bytes the ratio is bytes/ns, which
    equals GB/s.
    """
    execution = record.execution_time
    if execution <= 0:
        return 0.0
    return record.total_bytes_sent / execution
