"""Monolithic baseline processor (Table 3's "Base IPC").

The paper's baseline is "a monolithic processor with as many resources as
the 16-cluster system": one giant cluster holding all the functional units,
registers, and issue-queue entries, with no inter-cluster communication of
any kind.  We express it as a one-cluster configuration with 16x resources;
with a single cluster every network transfer is a no-op.
"""

from __future__ import annotations

from typing import Optional

from ..config import ProcessorConfig, monolithic_config
from ..stats import SimStats
from ..workloads.instruction import Trace
from .processor import ClusteredProcessor


def simulate_monolithic(
    trace: Trace,
    config: Optional[ProcessorConfig] = None,
    max_instructions: Optional[int] = None,
) -> SimStats:
    """Run the monolithic baseline over a trace."""
    processor = ClusteredProcessor(trace, config or monolithic_config())
    try:
        return processor.run(max_instructions)
    finally:
        processor.release()
