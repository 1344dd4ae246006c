"""Workload inputs, made from the seed alone.

Each ``make_*`` function writes one workload's snapshot into ``workdir``
and returns it with its operations: the CLI argument lists the closed
loop runs in turn, each with the parameters the checks need.
The same seed always gives the same files and the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

# score-many: about 5k accounts from `gen`, every account scored exactly
# once per five operations of 1,000 handles.
SCORE_ACCOUNTS = 5000
SCORE_MAX_FOLLOWERS = 100
SCORE_HANDLES_PER_OP = 1000
# Share of active accounts given more than 100 tweets, written shuffled.
SCORE_LONG_SHARE = 0.1
SCORE_LONG_MAX_TWEETS = 250

# compare-sweep: a smaller `gen` snapshot, one batched (n_f, k) list,
# one operation per root. The snapshot is the same for every seed and the
# seed draws the roots: a `gen` graph's density varies from seed to seed,
# and with it the network accounts per call by almost a fifth.
SWEEP_GRAPH_SEED = 2014
SWEEP_ACCOUNTS = 1500
SWEEP_MAX_FOLLOWERS = 200
SWEEP_NF = (200, 150, 100, 60, 30)
SWEEP_K = (12, 9, 7, 5, 4)
SWEEP_TTLS = (4, 5, 4, 5, 4, 5)
SWEEP_ROOT_POOL = 50

# compare-dense: root, then DENSE_TTL pools of DENSE_POOL accounts; every
# account of pool j+1 follows every account of pool j.
DENSE_TTL = 6
DENSE_POOL = 8
DENSE_NF = (8, 8)
DENSE_K = (5, 7)

_CAPTURE = datetime(2020, 6, 1, tzinfo=timezone.utc)


def _gen(seed: int, accounts: int, max_followers: int, out: Path) -> None:
    """Write a snapshot with the program's own `gen` command."""
    from influence_tracker import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["gen", "--seed", str(seed), "--accounts", str(accounts),
                       "--max-followers", str(max_followers), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"gen exited with {rc}")


def _tweet_line(tweet_id, author_id, created_at, retweets, favorites, is_retweet) -> str:
    return json.dumps({
        "kind": "tweet", "id": tweet_id, "author_id": author_id,
        "created_at": created_at.isoformat(), "retweet_count": retweets,
        "favorite_count": favorites, "is_retweet": is_retweet,
    }, separators=(",", ":")) + "\n"


def _handle_form(rng: random.Random, account_id: str, handle: str) -> str:
    """One of the spellings `score` must resolve: id, or handle in mixed
    case, with or without a leading "@"."""
    form = rng.randrange(4)
    if form == 0:
        return account_id
    if form == 1:
        return handle.upper()
    mixed = "".join(c.upper() if rng.random() < 0.5 else c for c in handle)
    return "@" + mixed if form == 2 else mixed


def make_score_many(seed: int, workdir: Path) -> tuple[Path, list[dict]]:
    path = workdir / "score-many.jsonl"
    _gen(seed, SCORE_ACCOUNTS, SCORE_MAX_FOLLOWERS, path)
    rng = random.Random(f"score-many/{seed}")

    # Group the canonical file by account: an account line, then its tweets.
    groups: list[list[str]] = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"kind":"account"'):
                groups.append([line])
            else:
                groups[-1].append(line)
    handles = []
    with path.open("w", encoding="utf-8") as fh:
        for group in groups:
            account = json.loads(group[0])
            handles.append((account["id"], account["handle"]))
            tweets = group[1:]
            if tweets and rng.random() < SCORE_LONG_SHARE:
                target = rng.randint(len(tweets) + 1, SCORE_LONG_MAX_TWEETS)
                target = max(target, 101)
                capture = datetime.fromisoformat(account["captured_at"])
                for j in range(target - len(tweets)):
                    age = timedelta(seconds=rng.randint(60, 60 * 86400), microseconds=rng.randrange(10**6))
                    tweets.append(_tweet_line(
                        f"tx-{account['id']}-{j:03d}", account["id"], capture - age,
                        rng.randint(0, 400), rng.randint(0, 800), rng.random() < 0.3,
                    ))
                rng.shuffle(tweets)
            fh.write(group[0])
            fh.writelines(tweets)

    rng.shuffle(handles)
    queries = [_handle_form(rng, account_id, handle) for account_id, handle in handles]
    ops = []
    for start in range(0, len(queries), SCORE_HANDLES_PER_OP):
        chunk = queries[start:start + SCORE_HANDLES_PER_OP]
        ops.append({
            "argv": ["score", "--format", "json", "--dataset", str(path), *chunk],
            "handles": chunk,
        })
    return path, ops


def make_compare_sweep(seed: int, workdir: Path) -> tuple[Path, list[dict]]:
    path = workdir / "compare-sweep.jsonl"
    _gen(SWEEP_GRAPH_SEED, SWEEP_ACCOUNTS, SWEEP_MAX_FOLLOWERS, path)
    rng = random.Random(f"compare-sweep/{seed}")
    followers = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"kind":"account"'):
                account = json.loads(line)
                followers[account["id"]] = (len(account["follower_ids"]), account["handle"])
    widest = sorted(followers, key=lambda a: (-followers[a][0], a))[:SWEEP_ROOT_POOL]
    roots = rng.sample(widest, len(SWEEP_TTLS))
    ops = []
    for i, (root, ttl) in enumerate(zip(roots, SWEEP_TTLS)):
        query = root if i % 2 == 0 else "@" + followers[root][1]
        ops.append({
            "argv": ["compare", "--format", "json", "--dump-networks", "--dataset", str(path),
                     "--root", query, "--nf", ",".join(map(str, SWEEP_NF)),
                     "--k", ",".join(map(str, SWEEP_K)), "--ttl", str(ttl)],
            "root": root, "ttl": ttl, "configs": list(zip(SWEEP_NF, SWEEP_K)),
        })
    return path, ops


def make_compare_dense(seed: int, workdir: Path) -> tuple[Path, list[dict]]:
    """A root and DENSE_TTL layers of DENSE_POOL accounts, every account
    active; each account of layer j+1 follows every account of layer j."""
    path = workdir / "compare-dense.jsonl"
    rng = random.Random(f"compare-dense/{seed}")
    layers = [["dense-0-00"]] + [
        [f"dense-{depth}-{j:02d}" for j in range(DENSE_POOL)] for depth in range(1, DENSE_TTL + 1)
    ]
    with path.open("w", encoding="utf-8") as fh:
        for depth, layer in enumerate(layers):
            follower_ids = layers[depth + 1] if depth < DENSE_TTL else []
            for account_id in layer:
                fh.write(json.dumps({
                    "kind": "account", "id": account_id, "handle": account_id.replace("-", "_"),
                    "followers_count": len(follower_ids) + rng.randint(0, 20000),
                    "following_count": rng.randint(0, 3000), "follower_ids": follower_ids,
                    "captured_at": _CAPTURE.isoformat(),
                }, separators=(",", ":")) + "\n")
                n_tweets = rng.randint(5, 60)
                span = timedelta(days=rng.uniform(0.5, 30.0))
                share = rng.uniform(0.1, 0.9)
                for j in range(n_tweets):
                    fh.write(_tweet_line(
                        f"{account_id}-t{j:03d}", account_id, _CAPTURE - span * rng.random(),
                        rng.randint(0, 300), rng.randint(0, 600), rng.random() < share,
                    ))
    return path, [{
        "argv": ["compare", "--format", "json", "--dataset", str(path), "--root", layers[0][0],
                 "--nf", ",".join(map(str, DENSE_NF)), "--k", ",".join(map(str, DENSE_K)),
                 "--ttl", str(DENSE_TTL)],
        "root": layers[0][0], "ttl": DENSE_TTL, "configs": list(zip(DENSE_NF, DENSE_K)),
    }]


WORKLOADS = {
    "score-many": make_score_many,
    "compare-sweep": make_compare_sweep,
    "compare-dense": make_compare_dense,
}
