"""Command-line interface: ``python -m repro <command>``.

Subcommands regenerate the paper's artefacts and run ad-hoc sessions
without writing any code:

* ``fig1`` -- render the star topology (paper Fig. 1);
* ``fig2`` -- run the inconsistency scenario without transformation;
* ``fig3`` -- run the Section 5 walkthrough and print every timestamp
  and concurrency verdict;
* ``overhead`` -- the CLAIM-OVH timestamp-bytes table;
* ``memory`` -- the CLAIM-MEM storage table;
* ``session`` -- a random N-user editing session with convergence and
  wire statistics (star or mesh architecture);
* ``trace`` -- run a traced star session (optionally under faults),
  write JSONL + Chrome ``trace_event`` artefacts, and cross-check the
  trace-derived happens-before relation against the ground-truth
  oracle;
* ``serve`` -- run the star notifier as a real process behind a TCP
  accept loop (wall-clock scheduler, length-prefixed wire frames);
* ``client`` -- run one star client process that dials a notifier and
  replays its slice of the seeded workload over the socket;
* ``cluster`` -- launch a notifier + N client subprocesses on
  localhost, gather their per-process trace artifacts, and run the
  convergence + causality cross-checks on the merged trace;
* ``monitor`` -- tail the live telemetry streams a cluster run writes
  (``--telemetry-interval``) and aggregate them across processes into
  one status line per interval plus a JSONL artifact.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable, Sequence

from repro.analysis.consistency import check_divergence
from repro.editor import MeshSession, StarSession
from repro.metrics.accounting import memory_comparison, overhead_sweep
from repro.net.channel import JitterLatency
from repro.viz.spacetime import render_star_topology
from repro.workloads.random_session import (
    RandomSessionConfig,
    drive_mesh_session,
    drive_star_session,
)
from repro.workloads.scripted import (
    FIG2_INITIAL_DOCUMENT,
    fig3_script,
    fig_latency_factory,
)


def jitter_latency_factory(seed: int) -> Callable[[int, int], JitterLatency]:
    """The seeded per-link latency draw of ``session`` and ``trace``.

    Shared with ``tests/integration/test_golden_sessions.py``, whose
    exact message counts and latency percentiles depend on it.
    """

    def factory(src: int, dst: int) -> JitterLatency:
        return JitterLatency(0.08, 0.6, random.Random(seed * 97 + src * 11 + dst))

    return factory


def _run_scripted(transform: bool) -> StarSession:
    # Fig. 3 is printed from the complete buffers the paper walks through:
    # only an oracle session retains (and verifies) the whole history, and
    # only a diagnostic one keeps the verdicts and the broadcast log.
    session = StarSession(
        n_sites=3,
        initial_state=FIG2_INITIAL_DOCUMENT,
        latency_factory=fig_latency_factory,
        verify_with_oracle=transform,
        transform_enabled=transform,
        record_checks=True,
    )
    for item in fig3_script():
        session.generate_at(item.site, item.op, item.time, op_id=item.op_id)
    session.run()
    return session


def cmd_fig1(args: argparse.Namespace) -> int:
    print(render_star_topology(args.clients))
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    del args
    session = _run_scripted(transform=False)
    print(f"initial document: {FIG2_INITIAL_DOCUMENT!r}")
    for site, doc in enumerate(session.documents()):
        print(f"site {site} final: {doc!r}")
    report = check_divergence(session.documents())
    print(report.summary())
    return 1 if report.diverged else 0  # divergence is the expected outcome


def cmd_fig3(args: argparse.Namespace) -> int:
    del args
    session = _run_scripted(transform=True)
    print(f"initial document: {FIG2_INITIAL_DOCUMENT!r}\n")
    print("notifier broadcasts:")
    broadcasts = session.notifier.broadcast_log
    assert broadcasts is not None  # _run_scripted asks for diagnostics
    for op_id, dest, ts in broadcasts:
        print(f"  {op_id} -> site {dest}  {ts!r}")
    print("\nbuffered operations at site 0:")
    for entry in session.notifier.hb:
        print(f"  {entry.op_id}  {entry.timestamp!r}")
    print("\nconcurrency verdicts:")
    for record in session.all_checks():
        relation = "||" if record.verdict else "->-ordered-with"
        print(f"  site {record.site}: {record.new_op_id} {relation} {record.buffered_op_id}")
    print()
    for site, doc in enumerate(session.documents()):
        print(f"site {site} final: {doc!r}")
    if not session.converged():
        print("ERROR: replicas diverged", file=sys.stderr)
        return 1
    print("all replicas converged")
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    rows = overhead_sweep(args.sizes, seed=args.seed, messages=args.messages)
    print("     N |  full VC B | lamport |  SK local  |  SK uniform | compressed")
    for row in rows:
        print(row.as_row())
    return 0


def cmd_memory(args: argparse.Namespace) -> int:
    rows = memory_comparison(args.sizes)
    print("     N | full VC ints | SK ints  | CVC client  | CVC notifier")
    for row in rows:
        print(row.as_row())
    return 0


def _parse_crash(spec: str):
    """Parse a ``site:at:restart_at`` crash specification."""
    from repro.net.faults import ClientCrash

    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"crash spec must be site:at:restart_at, got {spec!r}"
        )
    try:
        return ClientCrash(site=int(parts[0]), at=float(parts[1]), restart_at=float(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_outage(spec: str):
    """Parse a ``start:end`` outage window."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"outage spec must be start:end, got {spec!r}")
    return (float(parts[0]), float(parts[1]))


def _add_fault_args(parser: argparse.ArgumentParser, drop: float, dup: float) -> None:
    """The seven fault flags, declared once for ``session`` and ``trace``.

    ``--drop`` / ``--dup`` default to ``None`` (not given), so giving
    either one enables the plan; ``drop`` / ``dup`` are what the
    sub-command uses for the one not given once a plan exists.
    """
    parser.set_defaults(fault_fallback=(drop, dup))
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run under a fault plan (enables the reliability protocol; "
        f"defaults to --drop {drop} --dup {dup}, combine with "
        "--drop/--dup/--crash/--outage)",
    )
    parser.add_argument(
        "--drop", type=float, default=None, help="per-message drop probability"
    )
    parser.add_argument(
        "--dup", type=float, default=None, help="per-message duplication probability"
    )
    parser.add_argument(
        "--crash",
        type=_parse_crash,
        action="append",
        metavar="SITE:AT:RESTART_AT",
        help="crash a client at AT, restart at RESTART_AT (repeatable)",
    )
    parser.add_argument(
        "--outage",
        type=_parse_outage,
        action="append",
        metavar="START:END",
        help="burst outage window on every channel (repeatable)",
    )
    parser.add_argument(
        "--crash-notifier",
        type=float,
        default=None,
        metavar="AT",
        help="crash the notifier at virtual time AT; a surviving client "
        "is elected and promoted to the centre role",
    )
    parser.add_argument(
        "--standby",
        type=int,
        default=None,
        metavar="SITE",
        help="warm-standby site preferred as failover successor "
        "(requires a fault plan; default: lowest live site id)",
    )


def _build_fault_plan(args: argparse.Namespace):
    from repro.net.faults import ChannelFaults, FaultPlan, NotifierCrash

    if not (
        args.faults
        or args.drop is not None
        or args.dup is not None
        or args.crash
        or args.outage
        or args.crash_notifier is not None
    ):
        return None
    drop, dup = args.fault_fallback
    return FaultPlan(
        seed=args.seed,
        default=ChannelFaults(
            drop_p=args.drop if args.drop is not None else drop,
            dup_p=args.dup if args.dup is not None else dup,
            outages=tuple(args.outage or ()),
        ),
        crashes=tuple(args.crash or ()),
        notifier_crash=(
            NotifierCrash(at=args.crash_notifier)
            if args.crash_notifier is not None
            else None
        ),
    )


def _random_session(args: argparse.Namespace, arch: str, **diagnostics):
    """The seeded random session of ``session`` and ``trace``, built with
    its workload scheduled: ``(session, fault plan)``, or ``None`` after
    telling stderr why the flags describe no session (exit 2).
    ``diagnostics`` are the star session's switches."""
    config = RandomSessionConfig(
        n_sites=args.sites,
        ops_per_site=args.ops,
        seed=args.seed,
        insert_ratio=args.insert_ratio,
    )
    latency_factory = jitter_latency_factory(args.seed)
    try:
        fault_plan = _build_fault_plan(args)
        if arch == "star":
            session = StarSession(
                args.sites,
                initial_state=config.initial_document,
                latency_factory=latency_factory,
                fault_plan=fault_plan,
                standby_site=args.standby,
                **diagnostics,
            )
    except (ValueError, IndexError) as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return None
    if arch == "star":
        drive_star_session(session, config)
    elif fault_plan is not None:
        print("fault injection is only supported for --arch star", file=sys.stderr)
        return None
    else:
        session = MeshSession(
            args.sites,
            initial_document=config.initial_document,
            latency_factory=latency_factory,
        )
        drive_mesh_session(session, config)
    return session, fault_plan


def cmd_session(args: argparse.Namespace) -> int:
    built = _random_session(args, args.arch, verify_with_oracle=args.verify)
    if built is None:
        return 2
    session, fault_plan = built
    session.run()
    stats = session.wire_stats()
    converged = session.converged()
    print(f"architecture     : {args.arch}")
    print(f"sites x ops      : {args.sites} x {args.ops}")
    print(f"converged        : {converged}")
    docs = session.documents()
    print(f"final document   : {docs[0]!r}")
    print(f"messages         : {stats.messages}")
    print(
        f"timestamp bytes  : {stats.timestamp_bytes} "
        f"({stats.timestamp_bytes / max(stats.messages, 1):.1f}/message)"
    )
    print(f"total wire bytes : {stats.total_bytes}")
    if fault_plan is not None:
        print(f"fifo respected   : {session.topology.fifo_respected()}")
        print(f"in-order release : {session.reliable_delivery_in_order()}")
        print(session.fault_report().summary())
    return 0 if converged else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceCausality,
        Tracer,
        cross_check_causality,
        latency_histograms,
        released_without_cause,
        verify_check_records,
        write_chrome_trace,
        write_jsonl,
    )

    tracer = Tracer()
    built = _random_session(
        args, "star", tracer=tracer, verify_with_oracle=True,
        record_checks=True,  # the verdicts are cross-checked below
    )
    if built is None:
        return 2
    session, fault_plan = built
    session.run()
    converged = session.converged()

    jsonl_path = f"{args.out}.jsonl"
    chrome_path = f"{args.out}.chrome.json"
    header = {
        "sites": args.sites,
        "ops_per_site": args.ops,
        "seed": args.seed,
        "faulty": fault_plan is not None,
    }
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        jsonl_lines = write_jsonl(tracer.events, fh, header=header)
    with open(chrome_path, "w", encoding="utf-8") as fh:
        chrome_records = write_chrome_trace(tracer.events, fh)

    causality = TraceCausality(tracer.events)
    report = cross_check_causality(causality, session.event_log)
    disagreements = verify_check_records(causality, session.all_checks())
    bad_releases = released_without_cause(tracer.events)
    histograms = latency_histograms(tracer.events, metrics=tracer.metrics)
    for event in tracer.events:  # per-kind counts are a view of the events
        tracer.metrics.inc(f"trace.{event.kind.value}")

    print(f"sites x ops      : {args.sites} x {args.ops}")
    print(f"converged        : {converged}")
    print(f"trace events     : {len(tracer.events)}")
    print(f"jsonl artefact   : {jsonl_path} ({jsonl_lines} lines)")
    print(f"chrome artefact  : {chrome_path} ({chrome_records} records)")
    print()
    print("event counts:")
    print(tracer.metrics.summary())
    print()
    print(report.summary())
    if fault_plan is not None:
        print()
        print(session.fault_report().summary())
    print(f"formula (5)/(7) verdicts vs trace: {len(disagreements)} disagreements")
    print(f"releases without a cause: {len(bad_releases)}")
    print()
    print("generation -> execution latency (virtual time):")
    for site in sorted(histograms):
        print(f"  site {site}: {histograms[site].summary()}")
    if args.diagram:
        from repro.viz.spacetime import diagram_events_from_trace, render_spacetime

        print()
        print(
            render_spacetime(
                args.sites + 1, diagram_events_from_trace(tracer.events)
            )
        )
    ok = converged and report.ok and not disagreements and not bad_releases
    if not ok:
        print("TRACE CHECK FAILED", file=sys.stderr)
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.cluster.harness import config_from_args
    from repro.cluster.serve import serve

    ok = asyncio.run(serve(config_from_args(args), Path(args.out)))
    return 0 if ok else 1


def cmd_client(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.cluster.client import run_client
    from repro.cluster.harness import config_from_args

    ok = asyncio.run(
        run_client(config_from_args(args), args.site, args.port, Path(args.out))
    )
    return 0 if ok else 1


def cmd_cluster(args: argparse.Namespace) -> int:
    import dataclasses
    import tempfile
    from pathlib import Path

    from repro.cluster import run_cluster
    from repro.cluster.driver import ClusterError
    from repro.cluster.harness import config_from_args

    try:
        config = config_from_args(args)
        if args.quick:
            config = dataclasses.replace(
                config, ops_per_client=3, timeout_s=min(config.timeout_s, 20.0)
            )
    except ValueError as exc:
        print(f"invalid cluster config: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else None
    if out_dir is None and config.telemetry_enabled:
        # Telemetry consumers (``repro monitor``, CI artifact upload)
        # need a knowable directory even when the caller gave none.
        out_dir = Path(tempfile.mkdtemp(prefix="repro_cluster_"))
        print(f"telemetry artifacts: {out_dir}")

    try:
        report = run_cluster(config, out_dir)
    except ClusterError as exc:
        print(f"cluster harness failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if config.telemetry_enabled and out_dir is not None:
            # Aggregate whatever telemetry the run left into monitor.jsonl.
            from repro.obs.monitor import run_monitor

            run_monitor(out_dir, once=True)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_monitor(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.monitor import run_monitor

    return run_monitor(
        Path(args.dir),
        interval_s=args.interval,
        duration_s=args.duration,
        once=args.once,
        artifact=Path(args.artifact) if args.artifact else None,
        follow=args.follow,
        max_intervals=args.max_intervals,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compressed vector clocks for real-time group editors "
        "(Sun & Cai, IPPS 2002) -- reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig1 = sub.add_parser("fig1", help="render the star topology (Fig. 1)")
    p_fig1.add_argument("--clients", type=int, default=4)
    p_fig1.set_defaults(func=cmd_fig1)

    p_fig2 = sub.add_parser("fig2", help="inconsistency scenario, transformation off")
    p_fig2.set_defaults(func=cmd_fig2)

    p_fig3 = sub.add_parser("fig3", help="the Section 5 walkthrough")
    p_fig3.set_defaults(func=cmd_fig3)

    p_ovh = sub.add_parser("overhead", help="timestamp overhead table (CLAIM-OVH)")
    p_ovh.add_argument("--sizes", type=int, nargs="+", default=[2, 8, 32, 128, 512])
    p_ovh.add_argument("--seed", type=int, default=0)
    p_ovh.add_argument("--messages", type=int, default=400)
    p_ovh.set_defaults(func=cmd_overhead)

    p_mem = sub.add_parser("memory", help="clock storage table (CLAIM-MEM)")
    p_mem.add_argument("--sizes", type=int, nargs="+", default=[2, 8, 32, 128, 512])
    p_mem.set_defaults(func=cmd_memory)

    p_sess = sub.add_parser("session", help="run a random editing session")
    p_sess.add_argument("--arch", choices=["star", "mesh"], default="star")
    p_sess.add_argument("--sites", type=int, default=4)
    p_sess.add_argument("--ops", type=int, default=6)
    p_sess.add_argument("--seed", type=int, default=0)
    p_sess.add_argument("--insert-ratio", type=float, default=0.7)
    p_sess.add_argument(
        "--verify",
        action="store_true",
        help="verify every concurrency verdict against full vector clocks",
    )
    _add_fault_args(p_sess, drop=0.0, dup=0.0)
    p_sess.set_defaults(func=cmd_session)

    p_trace = sub.add_parser(
        "trace",
        help="run a traced star session, write JSONL + Chrome trace "
        "artefacts, cross-check happens-before against the oracle",
    )
    p_trace.add_argument("--sites", type=int, default=4)
    p_trace.add_argument("--ops", type=int, default=6)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--insert-ratio", type=float, default=0.7)
    _add_fault_args(p_trace, drop=0.05, dup=0.02)
    p_trace.add_argument(
        "--out", default="trace", help="artefact path prefix (default: trace)"
    )
    p_trace.add_argument(
        "--diagram",
        action="store_true",
        help="also print a Fig. 2/3-style space-time diagram of the trace",
    )
    p_trace.set_defaults(func=cmd_trace)

    from repro.cluster.harness import add_common_args

    p_serve = sub.add_parser(
        "serve", help="run the star notifier as a TCP server process"
    )
    add_common_args(p_serve)
    p_serve.add_argument("--out", required=True, help="artifact directory")
    p_serve.set_defaults(func=cmd_serve)

    p_client = sub.add_parser(
        "client", help="run one star client process against a notifier"
    )
    add_common_args(p_client)
    p_client.add_argument("--out", required=True, help="artifact directory")
    p_client.add_argument("--site", type=int, required=True)
    p_client.add_argument("--port", type=int, required=True)
    p_client.set_defaults(func=cmd_client)

    p_cluster = sub.add_parser(
        "cluster",
        help="launch a notifier + N client subprocesses on localhost and "
        "verify convergence + causality over the merged trace",
    )
    add_common_args(p_cluster)
    p_cluster.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: 3 ops per client, tight timeout",
    )
    p_cluster.add_argument(
        "--out",
        default=None,
        help="artifact directory (default: a kept temporary directory)",
    )
    p_cluster.set_defaults(func=cmd_cluster)

    p_monitor = sub.add_parser(
        "monitor",
        help="aggregate the live telemetry streams of a cluster run "
        "(one status line per interval + a JSONL artifact)",
    )
    p_monitor.add_argument(
        "--dir", required=True,
        help="the cluster artifact directory holding telemetry_<site>.jsonl",
    )
    p_monitor.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="seconds between aggregation passes (default 1.0)",
    )
    p_monitor.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="stop after S seconds (default: stop when streams go idle)",
    )
    p_monitor.add_argument(
        "--once", action="store_true",
        help="one aggregation pass over what is on disk, then exit",
    )
    p_monitor.add_argument(
        "--artifact", default=None,
        help="final JSONL artifact path (default: DIR/monitor.jsonl)",
    )
    p_monitor.add_argument(
        "--follow", action="store_true",
        help="live dashboard: one sparkline row per site on a TTY, "
        "deterministic plain lines when piped",
    )
    p_monitor.add_argument(
        "--max-intervals", type=int, default=None, metavar="N",
        help="stop after N aggregation rounds (CI smoke bound)",
    )
    p_monitor.set_defaults(func=cmd_monitor)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
