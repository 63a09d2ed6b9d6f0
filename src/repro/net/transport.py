"""Message envelopes and wire-size accounting.

The CLAIM-OVH benchmark compares *timestamp* bytes across clock schemes,
so every message in the simulation is wrapped in an :class:`Envelope`
that separates payload bytes from timestamp bytes.  Sizes follow the
accounting model stated in EXPERIMENTS.md: 4-byte integers, UTF-8
strings, 1-byte tags -- the same convention for every scheme so the
comparison is apples-to-apples.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable

INT_WIDTH = 4  # bytes per serialised integer; shared by all schemes

Sizer = Callable[[Any], int]

# Payload type -> the function that sizes it.  Filled at import time
# only: the module that defines a payload type registers its sizer, so
# a payload that exists always finds it.
_SIZERS: dict[type[Any], Sizer] = {}


def register_sizer(payload_type: type[Any], sizer: Sizer) -> None:
    """Declare how instances of ``payload_type`` are charged on the wire."""
    _SIZERS[payload_type] = sizer


def measure_payload_bytes(payload: Any) -> int:
    """Model size of a payload under the shared accounting convention.

    Dispatched on the payload's type: its own sizer, else that of its
    nearest registered base class, else (extension types nobody
    registered) the length of its pickle.
    """
    sizer = _SIZERS.get(type(payload))
    if sizer is not None:
        return sizer(payload)
    for base in type(payload).__mro__[1:]:
        sizer = _SIZERS.get(base)
        if sizer is not None:
            return sizer(payload)
    return len(pickle.dumps(payload))


register_sizer(type(None), lambda payload: 0)
register_sizer(int, lambda payload: 2 * INT_WIDTH)
register_sizer(float, lambda payload: 2 * INT_WIDTH)
register_sizer(str, lambda payload: len(payload.encode("utf-8")) + 1)


@dataclass(slots=True)
class Envelope:
    """A message in flight: payload plus timestamp metadata.

    ``timestamp_bytes`` is supplied by the sender according to its clock
    scheme (2 ints for the compressed scheme, N ints for full vectors,
    variable for SK); ``payload_bytes`` is measured from the payload.

    ``message_id`` starts as ``None`` and is assigned by the channel from
    the simulator's per-simulation counter at send time (see
    :meth:`repro.net.simulator.Simulator.next_message_id`), keeping id
    streams reproducible when several sessions share one process.
    """

    source: int
    dest: int
    payload: Any
    timestamp_bytes: int = 0
    kind: str = "op"
    message_id: int | None = None

    def total_bytes(self) -> int:
        """Payload + timestamp + a fixed 8-byte header."""
        return 8 + measure_payload_bytes(self.payload) + self.timestamp_bytes
