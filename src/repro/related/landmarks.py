"""Landmark-based approximate shortest paths (Gubichev et al., CIKM 2010).

The paper's §6 cites this as the representative *algorithm-specific*
approximation: "As precomputation, the shortest paths w.r.t. few landmark
nodes are computed for every node.  The distance values of the query
nodes w.r.t. a selected landmark node are combined to find the
approximate distances."

Estimate: ``d(s, v) ≈ min over landmarks L of  d(s, L) + d(L, v)`` — an
upper bound by the triangle inequality, exact whenever a shortest path
passes through a landmark.  Precomputation is ``2·|L|`` SSSP runs (one on
the graph, one on its transpose per landmark), charged on the simulator
like any other kernel work so the amortization math is comparable with
Graffix's preprocessing.

The contrast the comparison bench draws: landmarks answer *only*
distance queries (and degrade on road networks unless many landmarks are
used), while Graffix's transforms accelerate every vertex-centric
algorithm on the same preprocessed graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.common import check_source
from ..algorithms.sssp import sssp
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..gpusim.metrics import SimMetrics

__all__ = ["LandmarkIndex", "build_landmark_index", "pick_landmarks"]


def pick_landmarks(graph: CSRGraph, count: int, *, seed: int = 0) -> np.ndarray:
    """Degree-proportional landmark selection (the paper's cited work
    found high-degree landmarks the most effective single heuristic)."""
    if count < 1:
        raise AlgorithmError("need at least one landmark")
    count = min(count, graph.num_nodes)
    degs = graph.out_degrees() + graph.in_degrees()
    order = np.argsort(-degs, kind="stable")
    return order[:count].astype(np.int64)


@dataclass
class LandmarkIndex:
    """Precomputed landmark distances.

    ``to_landmark[i, v]``  = d(v, landmark_i)  (via the transpose graph);
    ``from_landmark[i, v]`` = d(landmark_i, v).
    """

    landmarks: np.ndarray
    from_landmark: np.ndarray
    to_landmark: np.ndarray
    preprocess_metrics: SimMetrics

    @property
    def num_landmarks(self) -> int:
        return int(self.landmarks.size)

    def estimate_from(self, source: int) -> np.ndarray:
        """Approximate distances from ``source`` to every node.

        ``O(|L| · n)`` arithmetic, no graph traversal — this is the whole
        point of the method (and also why its accuracy is capped).
        """
        n = self.from_landmark.shape[1]
        source = check_source(source, n)
        # d(source, L_i) + d(L_i, v), minimized over i
        s_to_l = self.to_landmark[:, source][:, None]  # (L, 1)
        est = np.min(s_to_l + self.from_landmark, axis=0)
        est[source] = 0.0
        return est

    def estimate(self, source: int, target: int) -> float:
        """Point-to-point estimate (the cited work's primary query)."""
        return float(self.estimate_from(source)[target])


def build_landmark_index(
    graph: CSRGraph,
    num_landmarks: int = 8,
    *,
    seed: int = 0,
    device: DeviceConfig = K40C,
) -> LandmarkIndex:
    """Run the ``2·|L|`` SSSP precomputations and assemble the index."""
    landmarks = pick_landmarks(graph, num_landmarks, seed=seed)
    rev = graph.reverse()
    n = graph.num_nodes
    from_l = np.full((landmarks.size, n), np.inf)
    to_l = np.full((landmarks.size, n), np.inf)
    metrics = SimMetrics(device=device)
    for i, lm in enumerate(landmarks.tolist()):
        fwd = sssp(graph, lm, device=device)
        bwd = sssp(rev, lm, device=device)
        from_l[i] = fwd.values
        to_l[i] = bwd.values
        metrics.merge(fwd.metrics)
        metrics.merge(bwd.metrics)
    return LandmarkIndex(
        landmarks=landmarks,
        from_landmark=from_l,
        to_landmark=to_l,
        preprocess_metrics=metrics,
    )
