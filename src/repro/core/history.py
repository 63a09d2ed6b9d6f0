"""The History Buffer (HB) of executed, timestamped operations.

Every site maintains an HB of operations in execution order (paper
Section 2.3).  Entries record:

* the executed operation, in the form it was executed in **and kept
  up to date**: when a later remote operation is symmetrically
  transformed against a concurrent entry, the entry's operation is
  replaced by its inclusion-transformed successor, so the buffer always
  reflects the current document context (the treatment Sun et al. 1998
  give the GOTO history);
* the timestamp assigned at buffering time (compressed at clients, full
  ``SV_0`` snapshot at the notifier) -- **never** rewritten, because the
  concurrency formulas are defined over the original counts;
* provenance: originating site and :class:`~repro.core.timestamp.OriginKind`.

On a star, formulas (5) and (7) plus FIFO make an arrival's concurrent
set exactly the unacknowledged one (``pending`` at a client,
``sent_to[source]`` at the notifier), which is what the editor
transforms against.  The buffer is needed only to re-derive those
verdicts, so only a diagnostic session (``record_checks`` or
``verify_with_oracle``) keeps one: pruned at the acknowledgement
horizon, or whole under the oracle.  A fast-path site's ``hb`` stays
empty.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Collection, Iterator, Union

from repro.core.timestamp import CompressedTimestamp, FullTimestamp, OriginKind

Timestamp = Union[CompressedTimestamp, FullTimestamp]


@dataclass(slots=True)
class HistoryEntry:
    """One executed operation in a history buffer."""

    op: Any  # current (possibly re-transformed) form of the operation
    timestamp: Timestamp
    origin_site: int  # site the operation was originally generated at
    origin_kind: OriginKind
    op_id: Any = None  # stable identity of the operation as buffered
    executed_at: float = 0.0  # virtual time of execution (for diagnostics)

    def __repr__(self) -> str:
        return f"HB({self.op_id or self.op!r} @ {self.timestamp!r} from s{self.origin_site})"


@dataclass
class HistoryBuffer:
    """:class:`HistoryEntry` records in execution order.

    Entries are appended at the tail and forgotten from the head: the
    paper's buffers are unbounded, but formulas (5)/(7) plus FIFO make
    every entry older than the oldest unacknowledged one causally before
    all future arrivals, so a diagnostic star session prunes at that
    horizon on every arrival (see :meth:`prune_head`).
    """

    entries: deque[HistoryEntry] = field(default_factory=deque)

    def append(self, entry: HistoryEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[HistoryEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> HistoryEntry:
        return self.entries[index]

    def op_ids(self) -> list[Any]:
        """Operation identities in execution order (for Fig. 3 assertions)."""
        return [entry.op_id for entry in self.entries]

    def prune_head(self, live_op_ids: Collection[Any]) -> None:
        """Forget head entries until one is in ``live_op_ids``.

        O(1) per entry dropped; the buffer is never rebuilt.  Only a
        *prefix* goes, so an entry behind a live one survives even when
        it is itself dead -- conservative, and it lets the caller name
        just the oldest unacknowledged operation of each acknowledgement
        queue instead of every live entry.
        """
        entries = self.entries
        while entries and entries[0].op_id not in live_op_ids:
            entries.popleft()
