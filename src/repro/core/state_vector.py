"""State vectors: the client's 2-vector and the notifier's full vector.

Paper Section 3.2.  For a system of N collaborating sites (identifiers
``1..N``) plus the notifier (site 0):

* every site ``i != 0`` maintains ``SV_i = [received_from_center,
  generated_locally]`` -- the compressed, constant-size-2 vector clock;
* the notifier maintains ``SV_0[i]`` = number of operations received
  from site ``i`` (``1 <= i <= N``) -- full size, but **never sent**:
  it is compressed per destination via formulas (1)-(2) at propagation
  time.

The paper indexes vector elements from 1; this implementation exposes
named accessors so no off-by-one leaks into call sites, and the
``as_paper_list`` helpers print in the paper's notation for the Fig. 3
replay tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.timestamp import CompressedTimestamp, FullTimestamp


@dataclass
class ClientStateVector:
    """``SV_i`` for a collaborating site ``i != 0`` (two integers).

    Maintenance rules (paper Section 3.2):

    1. initially both elements are 0;
    2. after executing an operation propagated from site 0, the first
       element is incremented;
    3. after executing a local operation, the second element is
       incremented.
    """

    site: int
    received_from_center: int = 0  # SV_i[1]
    generated_locally: int = 0  # SV_i[2]

    def __post_init__(self) -> None:
        if self.site <= 0:
            raise ValueError(f"client site ids are 1..N, got {self.site}")

    def record_remote_execution(self) -> None:
        """Rule 2: an operation propagated from site 0 was executed."""
        self.received_from_center += 1

    def record_local_execution(self) -> None:
        """Rule 3: a locally generated operation was executed."""
        self.generated_locally += 1

    def timestamp(self) -> CompressedTimestamp:
        """Timestamp a freshly executed local operation (``T_O = SV_i``)."""
        return CompressedTimestamp(self.received_from_center, self.generated_locally)

    def as_paper_list(self) -> list[int]:
        """``[SV_i[1], SV_i[2]]`` in the paper's notation."""
        return [self.received_from_center, self.generated_locally]

    def storage_ints(self) -> int:
        """Resident clock-state integers (the paper's headline: 2)."""
        return 2


@dataclass
class NotifierStateVector:
    """``SV_0``: the notifier's full N-element state vector.

    ``SV_0[i]`` counts operations received from site ``i``.  Used only
    locally -- for timestamping buffered operations with full vectors and
    for computing per-destination compressed timestamps.
    """

    n_sites: int
    counts: list[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_sites <= 0:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        self.counts = [0] * self.n_sites

    def _check_site(self, site: int) -> None:
        if not 1 <= site <= self.n_sites:
            raise ValueError(f"site ids are 1..{self.n_sites}, got {site}")

    def __getitem__(self, site: int) -> int:
        """``SV_0[site]`` with the paper's 1-based site indexing."""
        self._check_site(site)
        return self.counts[site - 1]

    def record_execution_from(self, site: int) -> None:
        """An operation received from ``site`` was executed at site 0."""
        self._check_site(site)
        self.counts[site - 1] += 1

    def total(self) -> int:
        """Total operations executed at the notifier."""
        return sum(self.counts)

    def add_site(self) -> int:
        """Grow the vector for a newly admitted site; returns its id.

        Late joiners receive the document state out of band (a snapshot),
        so their count starts at zero; see
        :meth:`repro.editor.star_notifier.StarNotifier.admit_client`.
        """
        self.counts.append(0)
        self.n_sites += 1
        return self.n_sites

    def compress_for_destination(
        self, dest: int, total: int | None = None
    ) -> CompressedTimestamp:
        """Formulas (1)-(2): the 2-element timestamp for an op sent to ``dest``.

        ``T[1] = sum_{j != dest} SV_0[j]`` -- operations received from all
        sites except the destination, i.e. exactly how many operations
        site 0 has propagated *to* ``dest`` (each executed op is
        broadcast to everyone but its originator);
        ``T[2] = SV_0[dest]`` -- operations received from the destination.

        A caller compressing one unchanged ``SV_0`` for many
        destinations passes :meth:`total` in: one sum, not N.  The
        broadcast itself reads the same pair off ``counts`` in place
        (:meth:`repro.editor.star_notifier.StarNotifier._execute_and_broadcast`),
        and a test pins the two equal.
        """
        self._check_site(dest)
        if total is None:
            total = self.total()
        own = self.counts[dest - 1]
        return CompressedTimestamp(total - own, own)

    def full_timestamp(self) -> FullTimestamp:
        """Snapshot for timestamping an operation buffered in ``HB_0``."""
        return FullTimestamp(tuple(self.counts))

    def as_paper_list(self) -> list[int]:
        """``[SV_0[1], ..., SV_0[N]]`` in the paper's notation."""
        return list(self.counts)

    def storage_ints(self) -> int:
        """Resident clock-state integers (N at the notifier)."""
        return self.n_sites
