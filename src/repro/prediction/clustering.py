"""SemT-OPTICS-style density clustering of enriched trajectories (Section 5).

An OPTICS implementation (Ankerst et al.) over an arbitrary distance
function — here the semantic-aware ERP of :mod:`.distances` — producing
the reachability ordering, from which clusters are extracted with a
reachability threshold. Per the paper's hybrid method, each cluster
exposes its **medoid**, whose reference points are the only ones the
downstream HMM trains on (a key source of the claimed resource savings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


@dataclass
class OpticsResult:
    """The OPTICS ordering plus extracted clusters."""

    order: list[int]                 # item indices in reachability order
    reachability: list[float]        # reachability distance per ordered position
    labels: list[int]                # cluster id per item (-1 = noise)
    medoids: dict[int, int]          # cluster id -> item index of the medoid

    @property
    def n_clusters(self) -> int:
        return len(self.medoids)

    def members(self, cluster_id: int) -> list[int]:
        return [i for i, lbl in enumerate(self.labels) if lbl == cluster_id]


def optics(
    items: Sequence[T],
    distance: Callable[[T, T], float],
    min_pts: int = 4,
) -> tuple[list[int], list[float], list[list[float]]]:
    """Core OPTICS with an unbounded neighbourhood radius: returns
    (ordering, reachability per ordered position, D).

    ``D`` is the materialized distance matrix (reused for medoids). For the
    corpus sizes of the TP experiments (hundreds of flights) the O(n^2)
    matrix is the right trade-off.
    """
    n = len(items)
    if n == 0:
        return [], [], []
    if min_pts < 2:
        raise ValueError("min_pts must be >= 2")
    D = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = distance(items[i], items[j])
            D[i][j] = d
            D[j][i] = d

    def core_distance(i: int) -> float:
        neighbours = sorted(d for j, d in enumerate(D[i]) if j != i)
        if len(neighbours) < min_pts - 1:
            return math.inf
        return neighbours[min_pts - 2]

    core = [core_distance(i) for i in range(n)]
    processed = [False] * n
    reach = [math.inf] * n
    order: list[int] = []

    for start in range(n):
        if processed[start]:
            continue
        processed[start] = True
        order.append(start)
        seeds: dict[int, float] = {}
        _update_seeds(start, core, D, processed, reach, seeds)
        while seeds:
            nxt = min(seeds, key=lambda j: (seeds[j], j))
            del seeds[nxt]
            processed[nxt] = True
            order.append(nxt)
            _update_seeds(nxt, core, D, processed, reach, seeds)

    ordered_reach = [reach[i] for i in order]
    return order, ordered_reach, D


def _update_seeds(center, core, D, processed, reach, seeds):
    cd = core[center]
    if math.isinf(cd):
        return
    for j in range(len(D)):
        if processed[j]:
            continue
        new_reach = max(cd, D[center][j])
        if new_reach < reach[j]:
            reach[j] = new_reach
            seeds[j] = new_reach


def extract_clusters(
    order: list[int],
    reachability: list[float],
    threshold: float,
    min_cluster_size: int = 3,
) -> list[int]:
    """Cut the reachability plot at ``threshold``: valleys become clusters."""
    labels = [-1] * len(order)
    current = -1
    active = False
    counts: dict[int, int] = {}
    for pos, item in enumerate(order):
        if reachability[pos] > threshold:
            active = False
            continue
        if not active:
            current += 1
            active = True
            # The point that *started* the valley (the previous ordered point
            # with high reachability) belongs to the cluster too.
            if pos > 0 and labels[order[pos - 1]] == -1:
                labels[order[pos - 1]] = current
                counts[current] = counts.get(current, 0) + 1
        labels[item] = current
        counts[current] = counts.get(current, 0) + 1
    # Demote undersized clusters to noise.
    for i, lbl in enumerate(labels):
        if lbl >= 0 and counts.get(lbl, 0) < min_cluster_size:
            labels[i] = -1
    # Re-number densely.
    remap: dict[int, int] = {}
    for i, lbl in enumerate(labels):
        if lbl >= 0:
            labels[i] = remap.setdefault(lbl, len(remap))
    return labels


def medoid_of(member_indices: list[int], D: list[list[float]]) -> int:
    """The member minimizing total distance to the rest of the cluster."""
    if not member_indices:
        raise ValueError("empty cluster has no medoid")
    return min(member_indices, key=lambda i: sum(D[i][j] for j in member_indices))


def semt_optics(
    items: Sequence[T],
    distance: Callable[[T, T], float],
    threshold: float,
    min_pts: int = 4,
    min_cluster_size: int = 3,
) -> OpticsResult:
    """The full SemT-OPTICS pipeline: order, extract, find medoids."""
    order, reachability, D = optics(items, distance, min_pts=min_pts)
    labels = extract_clusters(order, reachability, threshold, min_cluster_size)
    medoids = {}
    for cluster_id in sorted(set(lbl for lbl in labels if lbl >= 0)):
        members = [i for i, lbl in enumerate(labels) if lbl == cluster_id]
        medoids[cluster_id] = medoid_of(members, D)
    return OpticsResult(order, reachability, labels, medoids)
