"""Random editing workloads for property tests and benchmarks.

Generates seeded, reproducible streams of positional operations with a
configurable insert/delete mix, think-time distribution (exponential,
i.e. Poisson arrivals per site) and position locality (uniform or a
hotspot region, modelling users editing "their" paragraph).

Because an operation's validity depends on the document length at its
own site at generation time, the generator produces *intents* that the
session resolves at generation: :func:`random_positional_op` takes the
current document and draws a valid operation for it.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from repro.ot.operations import Delete, Insert, Operation


@dataclass
class RandomSessionConfig:
    """Parameters of a random editing session."""

    n_sites: int = 4
    ops_per_site: int = 10
    seed: int = 0
    insert_ratio: float = 0.7  # probability an edit is an insertion
    max_insert_len: int = 4
    max_delete_len: int = 3
    mean_think_time: float = 0.4  # exponential inter-edit time per site
    start_time: float = 1.0
    hotspot: bool = False  # concentrate edits in a narrow region
    initial_document: str = "The quick brown fox jumps over the lazy dog."

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        if not 0.0 <= self.insert_ratio <= 1.0:
            raise ValueError("insert_ratio must be in [0, 1]")
        if self.ops_per_site < 0:
            raise ValueError("ops_per_site must be >= 0")


def random_positional_op(
    rng: random.Random, document: str, config: RandomSessionConfig
) -> Operation:
    """Draw one valid positional operation for ``document``."""
    doc_len = len(document)

    def position(limit: int) -> int:
        if limit <= 0:
            return 0
        if config.hotspot:
            centre = limit // 2
            spread = max(1, limit // 8)
            return min(limit, max(0, int(rng.gauss(centre, spread))))
        return rng.randint(0, limit)

    if doc_len == 0 or rng.random() < config.insert_ratio:
        length = rng.randint(1, config.max_insert_len)
        text = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        return Insert(text, position(doc_len))
    count = rng.randint(1, min(config.max_delete_len, doc_len))
    return Delete(count, position(doc_len - count))


@dataclass(frozen=True)
class EditIntent:
    """A scheduled edit: the operation is drawn at generation time."""

    site: int
    time: float
    seed: int  # per-intent sub-seed for reproducible op drawing


def generate_random_edits(config: RandomSessionConfig) -> list[EditIntent]:
    """Produce the schedule of edit intents for every site."""
    rng = random.Random(config.seed)
    intents: list[EditIntent] = []
    for site in range(1, config.n_sites + 1):
        t = config.start_time
        for _ in range(config.ops_per_site):
            t += rng.expovariate(1.0 / config.mean_think_time)
            intents.append(EditIntent(site=site, time=t, seed=rng.getrandbits(32)))
    intents.sort(key=lambda intent: intent.time)
    return intents


def drive_star_session(session, config: RandomSessionConfig) -> dict[str, Operation]:
    """Schedule a random workload onto a :class:`StarSession`.

    Each intent materialises into a concrete operation *at generation
    time* against the generating client's current document, so the
    operation is always valid locally -- matching how a real user edits
    what they see.  Returns ``{name: op}``, filled as the run draws each op.
    """
    ops: dict[str, Operation] = {}
    for intent in generate_random_edits(config):
        client = session.client(intent.site)

        def make(client=client, seed=intent.seed) -> None:
            rng = random.Random(seed)
            op = random_positional_op(rng, client.document, config)
            ops[client.generate(op)] = op

        session.sim.schedule(intent.time, make)
    return ops


def drive_mesh_session(session, config: RandomSessionConfig) -> None:
    """Schedule the same style of workload onto a :class:`MeshSession`.

    Mesh sites are 0-based; intent sites ``1..N`` map to ``0..N-1``.
    """
    for intent in generate_random_edits(config):
        site = session.sites[intent.site - 1]

        def make(site=site, seed=intent.seed) -> None:
            rng = random.Random(seed)
            op = random_positional_op(rng, site.document, config)
            site.generate(op)

        session.sim.schedule(intent.time, make)
