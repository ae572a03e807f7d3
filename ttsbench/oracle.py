"""Correctness checks: every measured result against an independent run.

The oracle for a library job is the dense sparse path,
``FastCompassSimulator(gated=False)``, over the same compiled network
and inputs; a short prefix of it is in turn checked against the scalar
rank-partitioned ``CompassSimulator``.  A result is correct when its
spikes and every logical event counter match.  ``active_neuron_updates``
is left out on purpose: it counts the work an engine chose to do, which
differs between the gated and dense paths by design.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.compass import CompassSimulator, FastCompassSimulator
from repro.core.record import SpikeRecord

#: EventCounters fields that every engine must reproduce exactly.
LOGICAL_COUNTERS = (
    "ticks",
    "synaptic_events",
    "spikes",
    "deliveries",
    "neuron_updates",
    "hops",
    "messages",
    "membrane_saturations",
    "max_core_events_per_tick",
)


def digest(record: SpikeRecord) -> str:
    """Hash of a record's spikes and logical counters."""
    h = hashlib.sha256()
    for arr in (record.ticks, record.cores, record.neurons):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    c = record.counters
    h.update(repr(tuple(int(getattr(c, name)) for name in LOGICAL_COUNTERS)).encode())
    h.update(np.ascontiguousarray(c.synaptic_events_per_core, dtype=np.int64).tobytes())
    return h.hexdigest()


def oracle_run(network, n_ticks: int, inputs) -> SpikeRecord:
    """The dense sparse run of *network* for *n_ticks*."""
    return FastCompassSimulator(network, gated=False).run(n_ticks, inputs)


#: Ticks of the oracle prefix replayed on the scalar Compass expression.
COMPASS_PREFIX_TICKS = 8


def compass_prefix_ok(compiled, inputs) -> bool:
    """Whether the dense sparse path matches the scalar Compass expression.

    One core per rank, so the Compass message count has the same
    (cross-core) granularity as the sparse engines'.
    """
    n = COMPASS_PREFIX_TICKS
    scalar = CompassSimulator(compiled, n_ranks=compiled.n_cores).run(n, inputs)
    dense = FastCompassSimulator(compiled, gated=False).run(n, inputs)
    return digest(scalar) == digest(dense)
