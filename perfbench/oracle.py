"""Reference computations that the benchmark checks the program against.

Everything here works from the raw JSONL lines of a snapshot and follows
the method's definitions as written in the README and module docstrings.
It imports nothing from ``influence_tracker``, so a fault in the program
cannot also hide in the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

SECONDS_PER_DAY = 86400.0
MIN_SPAN_DAYS = 1.0 / SECONDS_PER_DAY
WINDOW = 100
TIE_TOLERANCE = 1e-12
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
CATEGORIES = ("by_influence", "by_followers")


@dataclass
class RawAccount:
    account_id: str
    handle: str
    followers: int
    following: int
    follower_ids: list[str]
    captured_at: datetime
    # (created_at, tweet_id, retweet_count, favorite_count, is_retweet)
    tweets: list[tuple] = field(default_factory=list)


@dataclass(frozen=True)
class Rates:
    """What scoring yields for one account at one instant."""

    tcr: float
    retweet_prob: float
    influence: float
    retweet_h: int
    favorite_h: int
    retweet_h_daily: float
    favorite_h_daily: float


def _timestamp(raw: str) -> datetime:
    return datetime.fromisoformat(raw.replace("Z", "+00:00"))


def parse_snapshot(path) -> dict[str, RawAccount]:
    """Accounts by id, each with every tweet line that names it."""
    accounts: dict[str, RawAccount] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rec = json.loads(line)
            if rec["kind"] == "account":
                accounts[rec["id"]] = RawAccount(
                    account_id=rec["id"],
                    handle=rec["handle"],
                    followers=rec["followers_count"],
                    following=rec["following_count"],
                    follower_ids=list(rec["follower_ids"]),
                    captured_at=_timestamp(rec["captured_at"]),
                )
            else:
                accounts[rec["author_id"]].tweets.append((
                    _timestamp(rec["created_at"]), rec["id"],
                    rec["retweet_count"], rec["favorite_count"], rec["is_retweet"],
                ))
    return accounts


def newest_window(tweets: list[tuple]) -> list[tuple]:
    """The newest 100 tweets; equal times are ordered by ascending id."""
    return sorted(tweets, key=lambda t: (-((t[0] - _EPOCH) // _MICROSECOND), t[1]))[:WINDOW]


def h_index_scan(counts: list[int]) -> int:
    """Largest h such that at least h of the counts are >= h, by counting
    for h = 1, 2, ... until the condition fails (it cannot hold again)."""
    h = 0
    while sum(1 for c in counts if c >= h + 1) >= h + 1:
        h += 1
    return h


def order_of_magnitude(n: int) -> int:
    if n == 0:
        return 0
    power = 1
    while power * 10 <= n:
        power *= 10
    return power


def rates(account: RawAccount, as_of: datetime) -> Rates:
    """Scores of one account; an account without tweets scores zero."""
    ftf = math.log10(account.followers / max(account.following, 1) + 1.0)
    window = newest_window(account.tweets)
    if not window:
        return Rates(0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)
    span = max(MIN_SPAN_DAYS, (as_of - window[-1][0]).total_seconds() / SECONDS_PER_DAY)
    tcr = len(window) / span
    retweet_h = h_index_scan([t[2] for t in window])
    favorite_h = h_index_scan([t[3] for t in window])
    return Rates(
        tcr=tcr,
        retweet_prob=sum(1 for t in window if t[4]) / len(window),
        influence=tcr * order_of_magnitude(account.followers) * ftf,
        retweet_h=retweet_h,
        favorite_h=favorite_h,
        retweet_h_daily=retweet_h / span,
        favorite_h_daily=favorite_h / span,
    )


@dataclass
class Reference:
    """One snapshot as the reference sees it: accounts, each account's
    rates at the capture instant, and account ids by case-folded handle."""

    dataset_id: str
    accounts: dict[str, RawAccount]
    as_of: datetime
    table: dict[str, Rates]
    by_handle: dict[str, list[str]]


def reference(path) -> Reference:
    accounts = parse_snapshot(path)
    as_of = max(a.captured_at for a in accounts.values())
    by_handle: dict[str, list[str]] = {}
    for account in accounts.values():
        by_handle.setdefault(account.handle.casefold(), []).append(account.account_id)
    return Reference(
        dataset_id=Path(path).stem,
        accounts=accounts,
        as_of=as_of,
        table={a: rates(account, as_of) for a, account in accounts.items()},
        by_handle=by_handle,
    )


def resolve(ref: Reference, query: str) -> RawAccount:
    """Exact id first, else the one handle equal up to case and a leading "@"."""
    if query in ref.accounts:
        return ref.accounts[query]
    found = ref.by_handle.get(query.lstrip("@").casefold(), [])
    if len(found) != 1:
        raise KeyError(query)
    return ref.accounts[found[0]]


@dataclass
class Network:
    """A rebuilt network: each account's layer, and follow edges src -> dst."""

    root: str
    ttl: int
    layers: dict[str, int]
    edges: set[tuple[str, str]]
    sink: str


def build_network(
    ref: Reference,
    root: str,
    n_f: int,
    k: int,
    ttl: int,
    category: str,
) -> Network:
    """Layered top-k network by the method's definition.

    Each account on layer n < ttl looks at its n_f smallest-id followers
    that have an account record, keeps the top k of them under the
    category (ties by ascending id) and gains an edge to each, except to
    the root. An account's layer is the first layer it is kept on. Every
    account on layer ttl then gets an edge to the sink.
    """
    accounts = ref.accounts

    def key(account_id):
        if category == "by_influence":
            return (-ref.table[account_id].influence, account_id)
        return (-accounts[account_id].followers, account_id)

    layers = {root: 0}
    edges: set[tuple[str, str]] = set()
    for depth in range(ttl):
        for parent in [a for a, d in layers.items() if d == depth]:
            candidates = sorted(f for f in accounts[parent].follower_ids if f in accounts)[:n_f]
            for chosen in sorted(candidates, key=key)[:k]:
                if chosen == root:
                    continue
                edges.add((parent, chosen))
                layers.setdefault(chosen, depth + 1)
    sink = "__sink__"
    while sink in layers:
        sink += "_"
    edges.update((a, sink) for a, d in layers.items() if d == ttl)
    return Network(root=root, ttl=ttl, layers=layers, edges=edges, sink=sink)


def transmission(upstream_tcr: float, downstream_tcr: float, downstream_rp: float) -> float:
    if upstream_tcr == 0:
        return 0.0
    return downstream_tcr / upstream_tcr * downstream_rp


def forward_pass(
    layers: dict[str, int],
    edges,
    node_rates: dict[str, tuple[float, float]],
    root: str,
    sink: str,
    ttl: int,
) -> tuple[int, float]:
    """(path count, total transmission) over paths root, layer 1, ..., layer
    ttl, sink, summed layer by layer instead of path by path.

    ``node_rates`` maps an account to (tcr, retweet_prob).
    """
    count = {root: 1}
    weight = {root: 1.0}
    by_src: dict[str, list[str]] = {}
    for src, dst in edges:
        by_src.setdefault(src, []).append(dst)
    frontier = [root]
    for depth in range(ttl):
        for src in frontier:
            for dst in by_src.get(src, ()):
                if dst == sink or layers.get(dst) != depth + 1:
                    continue
                factor = transmission(node_rates[src][0], *node_rates[dst])
                count[dst] = count.get(dst, 0) + count[src]
                weight[dst] = weight.get(dst, 0.0) + weight[src] * factor
        frontier = sorted(a for a in count if layers.get(a) == depth + 1)
    ends = [a for a in frontier if sink in by_src.get(a, ())]
    return sum(count[a] for a in ends), math.fsum(weight[a] for a in ends)


def dense_closed_form(
    root_tcr: float, layer_rates: list[list[tuple[float, float]]]
) -> tuple[int, float]:
    """(path count, total) of a network whose every layer-j node follows
    every layer-(j-1) node, with (tcr, retweet_prob) per node per layer.

    Along a path the tcr ratios telescope, so the total is
    (1 / tcr_root) * prod_{j < ttl} (sum_{a in S_j} r_a) * sum_{a in S_ttl} tcr_a r_a.
    """
    paths = math.prod(len(layer) for layer in layer_rates)
    if root_tcr == 0:
        return paths, 0.0
    total = 1.0 / root_tcr
    for layer in layer_rates[:-1]:
        total *= math.fsum(rp for _, rp in layer)
    return paths, total * math.fsum(tcr * rp for tcr, rp in layer_rates[-1])


def winner(by_influence: float, by_followers: float) -> str:
    difference = by_influence - by_followers
    if abs(difference) < TIE_TOLERANCE:
        return "tie"
    return "by_influence" if difference > 0 else "by_followers"
