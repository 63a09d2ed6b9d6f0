"""The paper's Fig. 2 / Fig. 3 collaborative-editing scenario, scripted.

Four operations across three client sites plus the notifier:

* ``O_1`` at site 1, ``O_2`` and ``O_3`` at site 2, ``O_4`` at site 3;
* arrival order at site 0 is ``O_2, O_1, O_4, O_3``;
* per-site execution orders match Fig. 2 exactly
  (site 1: ``O_1 O_2 O_4 O_3``; site 2: ``O_2 O_1 O_3 O_4``;
  site 3: ``O_2 O_4 O_1 O_3``).

Operation contents: the paper fixes ``O_1 = Insert["12", 1]`` and
``O_2 = Delete[3, 2]`` on the initial document ``"ABCDE"`` (Section 2.2)
but leaves ``O_3``/``O_4`` abstract; we pick concrete contents that stay
in range under every execution order so the same script drives both the
as-is relay (Fig. 2, divergence/intention-violation, replayed from the
run's trace) and the transformed run (Fig. 3, convergence).

Timing: generation instants and fixed per-channel latencies are chosen
so every ordering constraint of the figures holds; the module-level
constants below document the derivation and are asserted in the tests.

``FIG3_EXPECTED`` records every timestamp, state-vector value, history-
buffer content and concurrency verdict printed in the paper's Section 5
walkthrough; the FIG3 integration test replays the script and asserts
each one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.editor.messages import op_name
from repro.net.channel import FixedLatency, LatencyModel
from repro.ot.operations import Delete, Insert, Operation

FIG2_INITIAL_DOCUMENT = "ABCDE"

# Fixed one-way latency between each client and the notifier.
FIG_LATENCIES = {1: 1.0, 2: 0.5, 3: 0.3}


@dataclass(frozen=True)
class ScriptedOp:
    """One scripted operation: who generates what, and when.

    ``label`` is the paper's name for it; no label travels, the sites
    name it by ``(site, ordinal)`` (:func:`fig3_labels`)."""

    label: str
    site: int
    time: float
    op: Operation


def fig_latency_factory(source: int, dest: int) -> LatencyModel:
    """Latency model for the Fig. 2/3 star channels."""
    client = source if source != 0 else dest
    return FixedLatency(FIG_LATENCIES[client])


def fig3_script() -> list[ScriptedOp]:
    """The four operations with timing that reproduces the figures.

    Derived timeline (latencies above):

    * ``O_2`` gen 1.0 @s2 -> s0 at 1.5; ``O_2'`` reaches s1 at 2.5, s3 at 1.8
    * ``O_1`` gen 1.2 @s1 -> s0 at 2.2; ``O_1'`` reaches s2 at 2.7, s3 at 2.5
    * ``O_4`` gen 2.0 @s3 (after ``O_2'`` at 1.8, before ``O_1'`` at 2.5)
      -> s0 at 2.3; ``O_4'`` reaches s1 at 3.3, s2 at 2.8
    * ``O_3`` gen 2.75 @s2 (after ``O_1'`` at 2.7, before ``O_4'`` at 2.8)
      -> s0 at 3.25; ``O_3'`` reaches s1 at 4.25, s3 at 3.55
    """
    return [
        ScriptedOp("O2", site=2, time=1.0, op=Delete(3, 2)),
        ScriptedOp("O1", site=1, time=1.2, op=Insert("12", 1)),
        ScriptedOp("O4", site=3, time=2.0, op=Insert("xy", 2)),
        ScriptedOp("O3", site=2, time=2.75, op=Delete(1, 0)),
    ]


def fig3_labels() -> dict[str, str]:
    """Each scripted op's name at the sites -> its label in the paper,
    for the op and for the notifier's primed broadcast form.

    A site's ``k``-th scripted op is that site's op ``k``: the script's
    ``(site, k)`` order is all the labels need."""
    labels: dict[str, str] = {}
    ordinals: dict[int, int] = {}
    for item in fig3_script():
        ordinals[item.site] = ordinal = ordinals.get(item.site, 0) + 1
        labels[op_name(item.site, ordinal)] = item.label
        labels[op_name(item.site, ordinal, copy=True)] = f"{item.label}'"
    return labels


def fig2_ops() -> dict[str, Operation]:
    """Each scripted op's name -> its original operation, which every
    site executes when the notifier relays it as-is (Fig. 2)."""
    ops = {item.label: item.op for item in fig3_script()}
    return {name: ops[label] for name, label in fig3_labels().items() if label in ops}


def fig2_intention_example() -> tuple[str, Operation, Operation, str, str]:
    """The paper's Section 2.2 intention-violation example.

    Returns ``(document, O_1, O_2, intention_preserved, naive_at_site_1)``:
    executing ``O_1`` then untransformed ``O_2`` on ``"ABCDE"`` yields
    ``"A1DE"`` although the intention-preserved result is ``"A12B"``.
    """
    return FIG2_INITIAL_DOCUMENT, Insert("12", 1), Delete(3, 2), "A12B", "A1DE"


# Every value printed in the paper's Section 5 walkthrough.
FIG3_EXPECTED = {
    # Compressed timestamps assigned by the generating clients.
    "client_timestamps": {"O2": [0, 1], "O1": [0, 1], "O4": [1, 1], "O3": [1, 2]},
    # Per-destination compressed timestamps of the notifier's broadcasts.
    "broadcast_timestamps": {
        ("O2'", 1): [1, 0],
        ("O2'", 3): [1, 0],
        ("O1'", 2): [1, 1],
        ("O1'", 3): [2, 0],
        ("O4'", 1): [2, 1],
        ("O4'", 2): [2, 1],
        ("O3'", 1): [3, 1],
        ("O3'", 3): [3, 1],
    },
    # Full SV_0 snapshots timestamping the notifier's buffered operations.
    "notifier_buffer_timestamps": {
        "O2'": [0, 1, 0],
        "O1'": [1, 1, 0],
        "O4'": [1, 1, 1],
        "O3'": [1, 2, 1],
    },
    # History-buffer contents (operation ids, execution order) at the end.
    "final_hb": {
        0: ["O2'", "O1'", "O4'", "O3'"],
        1: ["O1", "O2'", "O4'", "O3'"],
        2: ["O2", "O1'", "O3", "O4'"],
        3: ["O2'", "O4", "O1'", "O3'"],
    },
    # Concurrency verdicts from the walkthrough: (site, new op, buffered op).
    "verdicts": {
        (1, "O2'", "O1"): True,
        (0, "O1", "O2'"): True,
        (2, "O1'", "O2"): False,
        (3, "O1'", "O2'"): False,
        (3, "O1'", "O4"): True,
        (0, "O4", "O2'"): False,
        (0, "O4", "O1'"): True,
        (1, "O4'", "O1"): False,
        (1, "O4'", "O2'"): False,
        (2, "O4'", "O2"): False,
        (2, "O4'", "O1'"): False,
        (2, "O4'", "O3"): True,
        (0, "O3", "O2'"): False,
        (0, "O3", "O1'"): False,
        (0, "O3", "O4'"): True,
        (1, "O3'", "O1"): False,
        (1, "O3'", "O2'"): False,
        (1, "O3'", "O4'"): False,
        (3, "O3'", "O2'"): False,
        (3, "O3'", "O4"): False,
        (3, "O3'", "O1'"): False,
    },
    # The paper's concurrent pairs among original operations (Section 2.4).
    "concurrent_pairs": {
        frozenset(("O1", "O2")),
        frozenset(("O1", "O4")),
        frozenset(("O3", "O4")),
    },
    "causal_pairs": {("O1", "O3"), ("O2", "O3"), ("O2", "O4")},
    # Per-site execution orders (Fig. 2), with notifier outputs primed.
    "execution_orders": {
        0: ["O2'", "O1'", "O4'", "O3'"],
        1: ["O1", "O2'", "O4'", "O3'"],
        2: ["O2", "O1'", "O3", "O4'"],
        3: ["O2'", "O4", "O1'", "O3'"],
    },
    # Convergent final document for the concrete op contents above.
    "final_document": "12Bxy",
    # Divergent finals of the as-is relay (Fig. 2), replayed from the run.
    "fig2_final_documents": {
        0: "1xy2B",
        1: "1xyDE",
        2: "12xyB",
        3: "12Bxy",
    },
}
