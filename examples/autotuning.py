"""Autotuning the approximation knobs per graph.

The paper gives per-graph *guidelines* for each threshold (§5.2-§5.4);
``repro.tune.tune_family`` seeds its search with them, scores every
technique × threshold × schedule candidate by simulated cycles under an
inaccuracy budget, and then tunes the runtime controller on the winner.
This example tunes two structurally opposite graphs (scale-free vs road)
under a tight and a loose budget and shows how the chosen knobs differ —
the paper's observation that power-law graphs and road networks want
different thresholds, now chosen automatically.

Run:  python examples/autotuning.py
"""

from __future__ import annotations

from repro import graphs
from repro.tune import tune_family


def main() -> None:
    suite = {
        "rmat (scale-free)": graphs.rmat(9, edge_factor=8, seed=4),
        "road (uniform)": graphs.road_network(22, seed=4),
    }
    for name, graph in suite.items():
        print(f"=== {name}: {graph}")
        for budget in (5.0, 20.0):
            rec = tune_family(name, graph, budget_percent=budget, quick=True)
            static, tuned = rec["static"], rec["tuned"]
            print(
                f"  budget {budget:4.1f}%: {rec['technique']} "
                f"threshold {rec['threshold']:.2f}, "
                f"schedule {rec['schedule'] or 'fixed-push'}"
            )
            print(
                f"    static {static['speedup_vs_exact']:.2f}x at "
                f"{static['inaccuracy_percent']:.2f}% inaccuracy; "
                f"tuned {tuned['speedup_vs_exact']:.2f}x at "
                f"{tuned['inaccuracy_percent']:.2f}% "
                f"({rec['static_trials']} + {rec['tuned_trials']} trials)"
            )
        print()

    print("A tighter budget biases the tuner toward conservative knobs; a")
    print("looser one chases raw speedup — the same trade-off the paper's")
    print("thresholds expose.  `python -m repro tune` runs this search over")
    print("the whole suite.")


if __name__ == "__main__":
    main()
