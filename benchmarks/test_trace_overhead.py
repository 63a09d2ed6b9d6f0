"""Tracing overhead report: what an attached tracer costs.

The observability layer's overhead contract (see DESIGN.md and
:mod:`repro.obs.tracer`): every hook site guards emission with a single
``if self.tracer is not None`` attribute check, so a session constructed
without a tracer -- the un-instrumented baseline -- pays one pointer
comparison per hook and nothing else.  "No tracer" and "a tracer" are
the only two states.

This runs the same deterministic session in both (min-of-N timing,
interleaved to decorrelate machine noise) and reports the ratio.  The
enabled run is not bounded -- recording events is allowed to cost what
it costs, and a percentage of a 5 ms session is not a gate (ROADMAP
1(g) moves the bound to perfbench's long workloads).
"""

import time

from conftest import emit

from repro.editor.star import StarSession
from repro.obs import Tracer
from repro.workloads.random_session import RandomSessionConfig, drive_star_session

N_SITES = 4
OPS_PER_SITE = 12
REPEATS = 9


def run_session(tracer):
    session = StarSession(N_SITES, tracer=tracer)
    drive_star_session(
        session,
        RandomSessionConfig(n_sites=N_SITES, ops_per_site=OPS_PER_SITE, seed=5),
    )
    session.run()
    assert session.converged()
    return session


def timed(tracer_factory) -> float:
    start = time.perf_counter()
    run_session(tracer_factory())
    return time.perf_counter() - start


def test_enabled_tracing_is_reported_against_the_baseline():
    variants = {
        "baseline (no tracer)": lambda: None,
        "enabled": lambda: Tracer(),
    }
    # Warm-up: import costs, allocator and OT caches out of the timings.
    for factory in variants.values():
        run_session(factory())
    best = {name: float("inf") for name in variants}
    for _ in range(REPEATS):  # interleaved so drift hits every variant alike
        for name, factory in variants.items():
            best[name] = min(best[name], timed(factory))
    baseline = best["baseline (no tracer)"]
    emit(
        "Tracing overhead (same deterministic session, min of "
        f"{REPEATS} runs)",
        "\n".join(
            f"  {name:<22} {seconds * 1000:.2f} ms"
            f"  ({seconds / baseline:.3f}x baseline)"
            for name, seconds in best.items()
        ),
    )
    # Sanity: the enabled run really did record the session.
    session = run_session(Tracer())
    assert len(session.trace_events()) > 0
