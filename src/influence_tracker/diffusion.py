"""Diffusion scoring over layered networks.

Each follow edge carries a tweet-transmission factor: the downstream
account's tweet rate relative to the upstream one, times the downstream
retweet propensity. A path from root to sink crossing every layer once
scores the product of its edge factors (the sink exists only in network
dumps and adds none). A network's total is the sum over all such paths;
the network with the larger total spreads information further.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from datetime import datetime

from .errors import DatasetError
from .metrics import InfluenceScore
from .network import LayeredNetwork, NetworkNode, RankingCategory, build_network
from .store import SnapshotDataset

# Totals whose gap is at most this share of the larger one tie. It is relative
# because a total scales with 1/tcr(root): a tie must not hang on the root's rate.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TransmissionPath:
    """One root-to-sink path: its nodes (sink id last), edge factors, and their product."""

    nodes: tuple[str, ...]
    edge_tt: tuple[float, ...]
    path_tt: float


@dataclass(frozen=True)
class ComparisonResult:
    """Each category's network, path count and total, their signed gap,
    and the winner.

    The three dicts are keyed in RankingCategory order. ``winner`` is None
    for a tie (see compare_networks). The networks are retained so callers
    can dump the graphs without rebuilding.
    """

    networks: dict[RankingCategory, LayeredNetwork]
    paths: dict[RankingCategory, int]
    ttt: dict[RankingCategory, float]
    difference: float
    winner: RankingCategory | None


def tweet_transmission(upstream: NetworkNode, downstream: NetworkNode) -> float:
    """Per-edge transmission factor: (downstream tcr / upstream tcr) * downstream retweet prob.

    An upstream that never tweets transmits nothing (returns 0 rather than
    dividing by zero).
    """
    if upstream.tcr == 0:
        return 0.0
    return (downstream.tcr / upstream.tcr) * downstream.retweet_prob


def enumerate_paths(network: LayeredNetwork) -> list[TransmissionPath]:
    """All root-to-sink paths whose layers strictly step 0, 1, ..., ttl, sink.

    Every chain reaching layer ttl reaches the sink, whose id ends its nodes.
    Chains follow ``network.successors()``, its steps into the next layer.
    Paths come out in lexicographic node-id order. An empty list means the
    network has no complete chain (degenerate or truncated).
    """
    nodes = network.nodes
    adjacency = network.successors()
    sink_id = network.sink_id
    paths: list[TransmissionPath] = []

    def walk(chain: list[str]) -> None:
        depth = len(chain) - 1
        if depth == network.ttl:
            edge_tt = tuple(
                tweet_transmission(nodes[a], nodes[b]) for a, b in zip(chain, chain[1:])
            )
            paths.append(TransmissionPath(
                nodes=tuple(chain) + (sink_id,),
                edge_tt=edge_tt,
                path_tt=math.prod(edge_tt),
            ))
            return
        for succ in adjacency[chain[-1]]:
            walk(chain + [succ])

    if network.root in nodes:
        walk([network.root])
    return paths


def total_tweet_transmission(paths: list[TransmissionPath]) -> float:
    """Sum of per-path transmission products; 0.0 for no paths."""
    return sum(p.path_tt for p in paths)


def diffusion_totals(network: LayeredNetwork) -> tuple[int, float]:
    """(path count, total transmission) of the paths enumerate_paths lists,
    without listing them.

    One pass over the nodes in (layer, id) order, a topological order of
    the next-layer steps: ``chains`` maps each node that a chain from the
    root reaches to the number of those chains and the sum of their
    products. A node ttl layers below the root adds its pair to the totals;
    any other pushes it along its successors. So every sum is taken left to
    right in sorted order, whatever the hashing or the Python version
    (``sum()`` of floats is compensated from 3.12 on). Costs O(nodes +
    edges) where enumeration costs O(k^ttl).
    """
    nodes = network.nodes
    if network.root not in nodes:
        return 0, 0.0
    adjacency = network.successors()
    last_layer = nodes[network.root].layer + network.ttl
    chains = {network.root: (1, 1.0)}
    path_count, transmission = 0, 0.0
    for src in network.sorted_nodes():
        chain = chains.get(src.account_id)
        if chain is None:
            continue
        count, total = chain
        if src.layer == last_layer:
            path_count += count
            transmission += total
            continue
        for dst in adjacency[src.account_id]:
            dst_count, dst_total = chains.get(dst, (0, 0.0))
            chains[dst] = (dst_count + count, dst_total + total * tweet_transmission(src, nodes[dst]))
    return path_count, transmission


def compare_networks(
    dataset: SnapshotDataset,
    root: str,
    n_f: int,
    k: int,
    ttl: int,
    as_of: datetime,
    scores: dict[datetime, dict[str, InfluenceScore]] | None = None,
) -> ComparisonResult:
    """Build both category networks with the same budget and compare totals.

    The difference is by-influence minus by-followers; its sign picks the
    winner unless it is at most TIE_TOLERANCE times the larger total's
    magnitude (so two zero totals tie). Both builds share ``scores``, the
    table ``build_network`` takes, fresh for this call when None.
    Raises DatasetError when a network has more paths than a float can
    hold or a total that is not finite: neither can be compared.
    """
    networks, paths, ttt = {}, {}, {}
    scores = {} if scores is None else scores
    for category in RankingCategory:
        networks[category] = build_network(dataset, root, n_f, k, ttl, category, as_of, scores)
        paths[category], ttt[category] = diffusion_totals(networks[category])
        # The count is never formatted: str() of an int past 4,300 digits raises.
        if paths[category] > sys.float_info.max or not math.isfinite(ttt[category]):
            raise DatasetError(
                f"the {category.value} network for n_f={n_f}, k={k}, ttl={ttl} "
                "has too many paths to total"
            )
    difference = ttt[RankingCategory.BY_INFLUENCE] - ttt[RankingCategory.BY_FOLLOWERS]
    if abs(difference) <= TIE_TOLERANCE * max(map(abs, ttt.values())):
        winner = None
    elif difference > 0:
        winner = RankingCategory.BY_INFLUENCE
    else:
        winner = RankingCategory.BY_FOLLOWERS
    return ComparisonResult(networks, paths, ttt, difference, winner)
