"""``python -m repro``: regenerate the paper's tables/figures from the CLI.

Subcommands:

* (default) — the evaluation suite (``python -m repro table6 ...``);
* ``stats <trace>`` — profile-style breakdown of a ``--trace-out`` trace
  (see :mod:`repro.obs.stats`);
* ``cache {stats,ls,clear}`` — inspect or clear the on-disk artifact
  cache (see :mod:`repro.cache.cli` and ``docs/caching.md``);
* ``verify`` — the structural/metamorphic/differential/golden oracle
  suite (see :mod:`repro.verify` and ``docs/verification.md``);
* ``serve`` — the long-lived analytics query server (see
  :mod:`repro.serve` and ``docs/serving.md``);
* ``bench serve`` — the YAML load generator + KPI gate against the
  server (:mod:`repro.serve.loadgen`), emitting ``BENCH_SERVE.json``;
* ``obs diff A B`` — noise-aware comparison of two tune/metrics/verify/
  profile/trace reports (see :mod:`repro.obs.diff` and
  ``docs/observability.md``);
* ``tune`` — the offline knob auto-tuner emitting
  ``benchmarks/results/BENCH_TUNE.json`` (see :mod:`repro.tune` and
  ``docs/tuning.md``).
"""

import sys


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "stats":
        from .obs.stats import main as stats_main

        return stats_main(argv[1:])
    if len(argv) >= 2 and argv[0] == "obs" and argv[1] == "diff":
        from .obs.diff import main as diff_main

        return diff_main(argv[2:])
    if argv and argv[0] == "serve":
        from .serve.cli import main as serve_main

        return serve_main(argv[1:])
    if len(argv) >= 2 and argv[0] == "bench" and argv[1] == "serve":
        from .serve.loadgen import main as bench_serve_main

        return bench_serve_main(argv[2:])
    if argv and argv[0] == "cache":
        from .cache.cli import main as cache_main

        return cache_main(argv[1:])
    if argv and argv[0] == "tune":
        from .tune.cli import main as tune_main

        return tune_main(argv[1:])
    if argv and argv[0] == "verify":
        from .verify.cli import main as verify_main

        return verify_main(argv[1:])
    from .eval.suite import main as suite_main

    return suite_main(argv)


if __name__ == "__main__":
    sys.exit(main())
