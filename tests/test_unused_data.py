"""Unused data: a symmetry of the model.

A network grows from its root through follower lists only, and a window
keeps an account's newest 100 tweets. So an account that no follower list
names, and a tweet older than the newest 100 of an account that already
holds 100, are read and checked but used by nothing else. Adding them to a
`gen` file must leave `compare` output byte-identical and every `score`
row of the accounts already there the same.
"""

import json
import random
from datetime import datetime, timedelta

import pytest

from influence_tracker import generate_synthetic, save_dataset

from test_cli import run


def _line(record):
    return json.dumps(record, separators=(",", ":")) + "\n"


def _tweet(tweet_id, author_id, created_at, rng):
    # Counters far above gen's, so a tweet that counted would show.
    return _line({"kind": "tweet", "id": tweet_id, "author_id": author_id, "created_at": created_at.isoformat(),
                  "retweet_count": rng.randrange(10**6), "favorite_count": rng.randrange(10**6),
                  "is_retweet": rng.random() < 0.5})


def padded_copy(path, out, rng):
    """Write ``path`` to ``out`` with unused accounts and old tweets mixed
    in; return how many of each were added."""
    groups = []  # one account's line, then its tweet lines
    for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
        if json.loads(line)["kind"] == "account":
            groups.append([line])
        else:
            groups[-1].append(line)
    captured = max(datetime.fromisoformat(json.loads(group[0])["captured_at"]) for group in groups)
    ids = [json.loads(group[0])["id"] for group in groups]

    # Old tweets: each after its author's line, in that account's group or a
    # later one. Full accounts and their oldest tweets are read before any
    # old tweet lands in a later group.
    full = [(position, group[100]) for position, group in enumerate(groups) if len(group) == 101]
    old_tweets = 0
    for position, oldest_line in full:
        oldest = datetime.fromisoformat(json.loads(oldest_line)["created_at"])
        author_id = ids[position]
        for j in range(rng.randint(1, 30)):
            created_at = oldest - timedelta(seconds=rng.randint(1, 10**7), microseconds=rng.randrange(10**6))
            groups[rng.randrange(position, len(groups))].append(_tweet(f"old-{author_id}-{j}", author_id,
                                                                        created_at, rng))
            old_tweets += 1

    # Unused accounts: ids that sort among the others, handles that match
    # none, capture times no later than the snapshot's, follower lists
    # naming existing accounts, and windows over or under 100 tweets.
    added = 0
    for position in rng.sample(range(len(groups)), len(groups) // 10):
        account_id = f"{ids[position]}-unused"
        capture = captured - timedelta(days=rng.choice([0, rng.uniform(0, 30)]))
        follower_ids = rng.sample(ids, rng.randint(0, 20))
        group = [_line({"kind": "account", "id": account_id, "handle": f"spare_{position:05d}",
                        "followers_count": len(follower_ids) + rng.randrange(10**6),
                        "following_count": rng.randrange(10**4), "follower_ids": follower_ids,
                        "captured_at": capture.isoformat()})]
        for j in range(rng.choice([0, rng.randint(1, 130)])):
            group.append(_tweet(f"{account_id}-{j}", account_id,
                                capture - timedelta(seconds=rng.randint(0, 40 * 86400)), rng))
        groups.insert(position, group)
        added += 1

    with out.open("w", encoding="utf-8") as fh:
        fh.writelines(line for group in groups for line in group)
    return added, old_tweets


@pytest.mark.parametrize("seed", [2, 7])
def test_unused_accounts_and_old_tweets_change_no_output(tmp_path, capsys, seed):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    original, padded = tmp_path / "a" / "gen.jsonl", tmp_path / "b" / "gen.jsonl"
    dataset = generate_synthetic(seed=seed, accounts=300, max_followers=40)
    save_dataset(dataset, original)
    added, old_tweets = padded_copy(original, padded, random.Random(seed))
    assert added > 0 and old_tweets > 0
    ids = sorted(dataset.accounts)
    roots = sorted(ids, key=lambda i: -len(dataset.accounts[i].follower_ids))[:2]

    calls = [["score", "--format", "json", *ids[::5]]]
    calls += [["compare", "--format", "json", "--dump-networks", "--root", root,
               "--nf", "20,40", "--k", "3,5", "--ttl", ttl] for root, ttl in zip(roots, ("3", "4"))]
    for argv in calls:
        before = run(capsys, [*argv, "--dataset", str(original)])
        after = run(capsys, [*argv, "--dataset", str(padded)])
        assert before[0] == 0
        assert before == after
