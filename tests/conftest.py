"""Shared builders for snapshots, windows, and whole datasets."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from influence_tracker import AccountSnapshot, LayeredNetwork, SnapshotDataset, TweetWindow
from influence_tracker.models import TweetRow

AS_OF = datetime(2023, 5, 1, tzinfo=timezone.utc)


def make_tweets(
    account_id: str,
    n: int,
    span_days: float,
    *,
    retweet_counts=None,
    favorite_counts=None,
    retweet_fraction: float = 0.0,
    end: datetime = AS_OF,
) -> list[TweetRow]:
    """n tweet rows of one account evenly spread over span_days, newest at ``end``.

    The first round(n * retweet_fraction) tweets (newest first) are marked
    as retweets, so the retweet share of the window is exact.
    """
    n_retweets = round(n * retweet_fraction)
    tweets = []
    for i in range(n):
        offset = span_days * (i / (n - 1)) if n > 1 else span_days
        tweets.append((
            f"{account_id}-t{i:03d}",
            end - timedelta(days=offset),
            retweet_counts[i] if retweet_counts else 0,
            favorite_counts[i] if favorite_counts else 0,
            i < n_retweets,
        ))
    return tweets


def make_window(account_id: str, n: int = 10, span_days: float = 1.0, **kwargs) -> TweetWindow:
    return TweetWindow.from_tweets(make_tweets(account_id, n, span_days, **kwargs))


def make_account(
    account_id: str,
    followers_count: int = 100,
    following_count: int = 10,
    follower_ids: tuple[str, ...] = (),
    handle: str | None = None,
    captured_at: datetime = AS_OF,
    window: TweetWindow | None = None,
) -> AccountSnapshot:
    return AccountSnapshot(
        account_id=account_id,
        handle=handle if handle is not None else account_id,
        followers_count=max(followers_count, len(follower_ids)),
        following_count=following_count,
        follower_ids=tuple(follower_ids),
        captured_at=captured_at,
        window=window,
    )


def network_dict(network: LayeredNetwork) -> dict:
    """The reference dump of a network: node records then edge records, fully
    sorted, with the sink's record last and an edge into it from each
    layer-ttl node. The JSON report's network writer is held to
    ``json.dumps(network_dict(network), indent=2)``."""
    sink_id = network.sink_id
    nodes = network.sorted_nodes()
    edges = list(network.edges)
    edges += [(n.account_id, sink_id) for n in nodes if n.layer == network.ttl]
    return {
        "root": network.root,
        "category": network.category.value,
        "ttl": network.ttl,
        "sink_id": sink_id,
        "nodes": [
            {
                "id": n.account_id,
                "layer": n.layer,
                "tcr": n.tcr,
                "retweet_prob": n.retweet_prob,
                "influence": n.influence,
                "followers_count": n.followers_count,
            }
            for n in nodes
        ] + [{"id": sink_id, "layer": None, "tcr": 0.0, "retweet_prob": 0.0,
              "influence": 0.0, "followers_count": 0}],
        "edges": [{"from": src, "to": dst} for src, dst in sorted(edges)],
    }


def dataset_from_spec(spec: dict[str, dict], dataset_id: str = "fixture") -> SnapshotDataset:
    """Build a dataset from per-account keyword dicts.

    Each entry may carry AccountSnapshot keywords plus ``tweets`` (count,
    None for a stub), ``span_days``, ``retweet_fraction``, and
    ``retweet_counts`` / ``favorite_counts`` for the window.
    """
    accounts = {}
    for account_id, params in spec.items():
        params = dict(params)
        n_tweets = params.pop("tweets", 10)
        span_days = params.pop("span_days", 1.0)
        window_kwargs = {
            key: params.pop(key)
            for key in ("retweet_fraction", "retweet_counts", "favorite_counts")
            if key in params
        }
        if n_tweets is not None:
            params["window"] = make_window(account_id, n_tweets, span_days, **window_kwargs)
        accounts[account_id] = make_account(account_id, **params)
    return SnapshotDataset(dataset_id=dataset_id, accounts=accounts)


def complete_tree_spec(branching: int = 3, depth: int = 3, **account_kwargs) -> dict[str, dict]:
    """A complete follower tree: the root's followers, their followers, ...

    Every account gets the same window shape, so all tweet rates are equal.
    Ids are 'n0' (root), then 'n0.0', 'n0.0.1', ... by position.
    """
    spec: dict[str, dict] = {}

    def grow(node_id: str, level: int) -> None:
        if level == depth:
            spec[node_id] = dict(account_kwargs)
            return
        children = [f"{node_id}.{i}" for i in range(branching)]
        spec[node_id] = dict(account_kwargs, follower_ids=tuple(children))
        for child in children:
            grow(child, level + 1)

    grow("n0", 0)
    return spec


def layered_spec(depth: int, width: int, **account_kwargs) -> dict[str, dict]:
    """A root, then ``depth`` layers of ``width`` accounts, each following
    every account of the layer above. Ids are 'root', then 'd<layer>-<i>'."""
    layers = [["root"]] + [[f"d{d}-{i}" for i in range(width)] for d in range(1, depth + 1)]
    return {
        account_id: dict(account_kwargs, follower_ids=tuple(below))
        for layer, below in zip(layers, layers[1:] + [[]])
        for account_id in layer
    }


@pytest.fixture
def tree_dataset() -> SnapshotDataset:
    """Complete 3-ary, 3-layer tree; every edge transmission factor is 1."""
    spec = complete_tree_spec(3, 3, tweets=10, span_days=2.0, retweet_fraction=1.0)
    return dataset_from_spec(spec, dataset_id="tree")
