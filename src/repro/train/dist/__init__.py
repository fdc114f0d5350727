"""Parameter-server distributed training over the KV store stack.

``ParameterServer`` (canonical model + delta application onto lag-0
rows), ``Worker`` (replica network on a private clock view),
``DistributedTrainer`` (sync / bounded-async / fully-async scheduling
with elastic membership), and ``StragglerInjector`` (scheduled worker
and replica faults).  See ``docs/ARCHITECTURE.md`` § "Distributed
training (parameter-server regime)".
"""

from repro.train.dist.chaos import StragglerInjector
from repro.train.dist.engine import DistConfig, DistributedTrainer
from repro.train.dist.server import ParameterServer, PushPacket, WorkerProgressClock
from repro.train.dist.worker import Worker

__all__ = [
    "DistConfig",
    "DistributedTrainer",
    "ParameterServer",
    "PushPacket",
    "StragglerInjector",
    "Worker",
    "WorkerProgressClock",
]
