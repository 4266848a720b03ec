"""``python -m repro serve``: run the analytics server in the foreground.

Starts a :class:`~repro.serve.server.ReproServer`, prints one startup
line (host, port, graphs, workers) so scripts can scrape the bound
port, and blocks until SIGTERM/SIGINT — both trigger the graceful
drain: in-flight queries finish, new ones answer ``shutting_down``,
and the ``--metrics-out``/``--trace-out`` sinks are flushed before
exit.  See ``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import signal

from ..core.pipeline import TECHNIQUES
from ..obs import trace as obs_trace
from .server import ReproServer
from .service import ServeConfig

__all__ = ["build_config", "main"]


def build_config(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        scale=args.scale,
        seed=args.seed,
        techniques=tuple(args.techniques),
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms,
        drain_seconds=args.drain_seconds,
        cache_dir=args.cache_dir,
        self_check=not args.no_self_check,
        allow_chaos=args.allow_chaos,
        degradation=not args.no_degradation,
        tune_config=args.tune_config,
        batch_window_ms=args.batch_window_ms,
        batch_max_lanes=args.batch_max_lanes,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Long-lived graph-analytics query server "
        "(line-delimited JSON over TCP; see docs/serving.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port (printed)"
    )
    parser.add_argument(
        "--scale", default="tiny", help="paper_suite scale to load (tiny/small/medium)"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--techniques",
        nargs="+",
        default=["exact", "coalescing"],
        choices=list(TECHNIQUES),
        help="plans to hold hot (default: exact coalescing)",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--queue-depth", type=int, default=16, help="admission queue bound"
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=2000.0, help="default request budget"
    )
    parser.add_argument("--drain-seconds", type=float, default=10.0)
    parser.add_argument("--cache-dir", default=None, help="disk plan cache")
    parser.add_argument(
        "--no-self-check", action="store_true",
        help="skip the startup verify-oracle pass over loaded plans",
    )
    parser.add_argument(
        "--no-degradation", action="store_true",
        help="disable the pressure-driven approximate-plan ladder",
    )
    parser.add_argument(
        "--tune-config", default=None, metavar="PATH",
        help="auto-tuner report (benchmarks/results/BENCH_TUNE.json) whose "
        "serve block drives the level-2 reduced-work knobs (default: "
        "historical halving fallbacks)",
    )
    parser.add_argument(
        "--batch-window-ms", type=float, default=0.0,
        help="let identical queries share one solve, holding each for up "
        "to this long (0 disables the batching window)",
    )
    parser.add_argument(
        "--batch-max-lanes", type=int, default=8,
        help="seal and run a batch group once it reaches this many lanes",
    )
    parser.add_argument(
        "--allow-chaos", action="store_true",
        help="honor the chaos admin op (fault injection; benchmarking only)",
    )
    parser.add_argument("--metrics-out", default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument(
        "--profile", default=None, metavar="PREFIX",
        help="sample the server until drain: writes PREFIX.collapsed + "
        "PREFIX.json (REPRO_PROFILE env works too)",
    )
    args = parser.parse_args(argv)

    if args.trace_out:
        obs_trace.install_tracer()

    from ..obs import prof as obs_prof

    profiler, profile_prefix = obs_prof.start_from_cli(args.profile)
    server = ReproServer(build_config(args))

    def _terminate(signum, frame):
        server.stop()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    port = server.start()
    print(
        f"repro serve listening on {args.host}:{port} "
        f"({len(server.service.graphs)} graphs, "
        f"{len(args.techniques)} plan(s) each, {args.workers} workers)",
        flush=True,
    )
    server.run()
    if profiler is not None:
        obs_prof.write_outputs(profiler, profile_prefix)
    return 0
