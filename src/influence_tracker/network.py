"""Layered follower networks rooted at one account.

Starting from a root, each layer's nodes are expanded by fetching up to
``n_f`` of their followers and keeping the top ``k`` under one of two
rival ranking categories: by influence score, or by raw follower count.
Expansion stops after ``ttl`` layers, or once a layer adds no account.
Every last-layer node feeds one synthetic sink, so all diffusion paths
share one endpoint; the sink is drawn only in network dumps.

A node's layer is the depth at which it was first selected (first
assignment wins); later selections only add edges. The root is never
re-entered: a selection that points back at it is dropped, so the graph
stays loop-free at the layer level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from operator import attrgetter
from typing import Callable

from .errors import UnknownAccount
from .metrics import InfluenceScore, influence_metric, retweet_probability
from .models import AccountSnapshot
from .store import SnapshotDataset, followers_of

DEFAULT_SINK_ID = "__sink__"


class RankingCategory(Enum):
    BY_INFLUENCE = "by_influence"
    BY_FOLLOWERS = "by_followers"


@dataclass(frozen=True)
class NetworkNode:
    """One account in the network, with the rates diffusion needs."""

    account_id: str
    layer: int
    tcr: float
    retweet_prob: float
    influence: float
    followers_count: int


@dataclass
class LayeredNetwork:
    """A rooted, layer-annotated follower graph under one category.

    Node ids are str, as the loader, ``gen`` and every build make them: the
    JSON writer groups edges by source id, which keeps each id's spelling
    only for str. ``edges`` holds ``(src, dst)`` account-id pairs: ``dst``
    follows ``src``, so tweets flow src -> dst.
    """

    root: str
    category: RankingCategory
    ttl: int
    nodes: dict[str, NetworkNode] = field(default_factory=dict)
    edges: set[tuple[str, str]] = field(default_factory=set)

    @property
    def sink_id(self) -> str:
        """DEFAULT_SINK_ID, lengthened with "_" past any node id."""
        sink_id = DEFAULT_SINK_ID
        while sink_id in self.nodes:
            sink_id += "_"
        return sink_id

    def successors(self) -> dict[str, list[str]]:
        """Each node's sorted steps into the next layer: the only edges that
        carry a tweet. Edges within a layer, skipping layers or pointing back
        up are left out."""
        nodes = self.nodes
        adj: dict[str, list[str]] = {node_id: [] for node_id in nodes}
        for src, dst in self.edges:
            if nodes[dst].layer == nodes[src].layer + 1:
                adj[src].append(dst)
        for targets in adj.values():
            targets.sort()
        return adj

    def sorted_nodes(self) -> list[NetworkNode]:
        """Nodes ordered by (layer, account_id): sorted by id, then stably by layer."""
        nodes = sorted(self.nodes.values(), key=attrgetter("account_id"))
        nodes.sort(key=attrgetter("layer"))
        return nodes


def rank_followers(
    candidates: list[AccountSnapshot],
    key: Callable[[AccountSnapshot], float],
    k: int,
) -> list[str]:
    """Top-k candidate ids by descending ``key``; equal keys keep input order.

    Candidates arrive in ascending id order, as ``followers_of`` returns
    them, so ties break by ascending id. ``build_network`` passes each
    parent's first ``n_f`` followers, with the influence score from its
    score table for ByInfluence and the raw follower count for ByFollowers.
    Returns at most k ids, best first.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # A stable sort: reverse=True keeps equal keys in input order.
    return [snapshot.account_id for snapshot in sorted(candidates, key=key, reverse=True)[:k]]


def build_network(
    dataset: SnapshotDataset,
    root: str,
    n_f: int,
    k: int,
    ttl: int,
    category: RankingCategory,
    as_of: datetime,
    scores: dict[datetime, dict[str, InfluenceScore]] | None = None,
) -> LayeredNetwork:
    """Expand a layered top-k follower network from ``root``.

    Per node at layer n < ttl: fetch up to ``n_f`` followers, rank them
    under ``category``, select the top ``k``. New accounts join at layer
    n+1; known accounts only gain an edge. Selections of the root are
    dropped. Nodes are expanded in the order they joined, which runs
    layer by layer; expansion stops at the first node on layer ttl, or
    once every node that joined has been expanded.

    ``scores`` holds influence scores by instant, then by account id. The
    build reads and fills ``scores[as_of]``, so builds that share one table
    score each account once per instant; None means a fresh table.

    A root with no resolvable followers yields a degenerate network (the
    root alone, no paths); callers are expected to report that, not fail.
    """
    if root not in dataset.accounts:
        raise UnknownAccount(f"no account {root!r} in dataset {dataset.dataset_id!r}")
    if ttl < 1:
        raise ValueError(f"ttl must be >= 1, got {ttl}")
    if n_f < 1:
        raise ValueError(f"n_f must be >= 1, got {n_f}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    table = {} if scores is None else scores.setdefault(as_of, {})

    def score_of(snapshot: AccountSnapshot) -> InfluenceScore:
        score = table.get(snapshot.account_id)
        if score is None:
            score = table[snapshot.account_id] = influence_metric(snapshot, as_of)
        return score

    def node_for(account_id: str, layer: int) -> NetworkNode:
        snapshot = dataset.accounts[account_id]
        score = score_of(snapshot)
        return NetworkNode(
            account_id=account_id,
            layer=layer,
            tcr=score.tcr,
            retweet_prob=retweet_probability(snapshot.window) if snapshot.window is not None else 0.0,
            influence=score.value,
            followers_count=snapshot.followers_count,
        )

    if category is RankingCategory.BY_INFLUENCE:
        def key(snapshot: AccountSnapshot) -> float:
            return score_of(snapshot).value
    else:
        key = attrgetter("followers_count")

    network = LayeredNetwork(root=root, category=category, ttl=ttl)
    network.nodes[root] = node_for(root, 0)
    joined = [root]
    for parent in joined:  # grows while it is walked, one layer after another
        layer = network.nodes[parent].layer + 1
        if layer > ttl:
            break
        for selected in rank_followers(followers_of(dataset, parent, n_f), key, k):
            if selected == root:
                continue
            network.edges.add((parent, selected))
            if selected not in network.nodes:
                network.nodes[selected] = node_for(selected, layer)
                joined.append(selected)
    return network
