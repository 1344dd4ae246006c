"""`score` and `compare` held to the benchmark's independent reference.

``perfbench/oracle.py`` recomputes scores, networks and totals from the
raw JSONL lines and imports nothing from the package; ``perfbench/checks.py``
compares CLI output against it. Here both run on small snapshots built
to hit the edges: over-long shuffled windows, equal timestamps that tie
by id, one-second clamps, stubs, dangling follower ids, equal follower
counts, and evaluation instants at and after the capture time.
"""

import contextlib
import dataclasses
import importlib.util
import io
import json
import random
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from influence_tracker import diffusion
from influence_tracker.cli import main

BENCH = Path(__file__).parent.parent / "perfbench"
CAPTURE = datetime(2020, 6, 1, tzinfo=timezone.utc)
# Few distinct tweet ages, so equal timestamps are common; 0 is the capture instant.
AGES = [timedelta(0), timedelta(seconds=1), timedelta(hours=3), timedelta(days=2), timedelta(days=30)]
SHAPES = {"stub": (0, 0), "burst": (1, 5), "window": (1, 100), "long": (101, 140)}


def _load(name):
    """A perfbench module, loaded from its file; ``checks`` imports ``oracle`` by name."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
checks = _load("checks")


def _tweet_lines(rng, account_id, shape):
    """The account's tweets: a burst sits at the capture instant, the other
    shapes draw from AGES; counts come from small ranges so h-indexes tie."""
    low, high = SHAPES[shape]
    lines = []
    for j in range(rng.randint(low, high)):
        age = timedelta(0) if shape == "burst" else rng.choice(AGES)
        lines.append(json.dumps({
            "kind": "tweet", "id": f"{account_id}-{j}", "author_id": account_id,
            "created_at": (CAPTURE - age).isoformat(), "retweet_count": rng.randint(0, 12),
            "favorite_count": rng.randint(0, 12), "is_retweet": rng.random() < 0.5,
        }))
    return lines


@st.composite
def snapshots(draw):
    """(JSONL lines, account ids) of a snapshot: accounts first, then every
    tweet, each part shuffled."""
    ids = [f"u{i:02d}" for i in range(draw(st.integers(2, 30), label="accounts"))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="tweet seed"))
    accounts, tweets = [], []
    for account_id in ids:
        others = [a for a in ids if a != account_id] + ["ghost-1", "ghost-2"]
        follower_ids = draw(st.lists(st.sampled_from(others), unique=True, max_size=8))
        accounts.append(json.dumps({
            "kind": "account", "id": account_id, "handle": f"h_{account_id}",
            "followers_count": len(follower_ids) + draw(st.sampled_from([0, 0, 7, 120, 9999])),
            "following_count": draw(st.sampled_from([0, 1, 50])),
            "follower_ids": follower_ids, "captured_at": CAPTURE.isoformat(),
        }))
        tweets += _tweet_lines(rng, account_id, draw(st.sampled_from(sorted(SHAPES))))
    rng.shuffle(accounts)
    rng.shuffle(tweets)
    return accounts + tweets, ids


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return json.loads(out.getvalue())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    snapshot=snapshots(),
    later=st.sampled_from([None, timedelta(0), timedelta(seconds=1), timedelta(days=3)]),
    data=st.data(),
)
def test_score_and_compare_match_the_reference(snapshot, later, data):
    """``later`` is how long after the capture time ``--as-of`` falls; None omits the flag."""
    lines, ids = snapshot
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ref = oracle.reference(path)
        as_of_flag = []
        if later is not None:
            as_of = ref.as_of + later
            ref = dataclasses.replace(ref, as_of=as_of, table={
                account_id: oracle.rates(account, as_of) for account_id, account in ref.accounts.items()
            })
            as_of_flag = ["--as-of", as_of.isoformat()]

        chosen = data.draw(st.lists(st.sampled_from(ids), unique=True, min_size=1), label="scored")
        handles = [data.draw(st.sampled_from([a, f"h_{a}".upper(), f"@h_{a}"]), label="query") for a in chosen]
        op = {"handles": handles}
        payload = _run(["score", "--format", "json", "--dataset", str(path), *as_of_flag, "--", *handles])
        assert checks.check_score(payload, op, None, ref) == []

        root = data.draw(st.sampled_from(ids), label="root")
        k = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="k")
        n_f = [data.draw(st.integers(top, 10), label="n_f") for top in k]
        ttl = data.draw(st.integers(1, 4), label="ttl")
        op = {"root": root, "ttl": ttl, "configs": list(zip(n_f, k))}
        networks = [
            {category: oracle.build_network(ref, root, nf, top, ttl, category) for category in oracle.CATEGORIES}
            for nf, top in op["configs"]
        ]
        payload = _run(["compare", "--format", "json", "--dump-networks", "--dataset", str(path), *as_of_flag,
                        "--root", root, "--nf", ",".join(map(str, n_f)), "--k", ",".join(map(str, k)),
                        "--ttl", str(ttl)])
        assert checks.check_sweep(payload, op, networks, ref) == []


def test_tie_rule_cannot_contradict_the_benchmark_checker():
    """The checker leaves a winner unchecked when the gap is within
    1e-12 + 2 * REL * (larger total) of a tie. A relative tolerance no larger
    than 2 * REL makes the program name a winner for every gap it checks."""
    assert diffusion.TIE_TOLERANCE <= 2 * checks.REL
    # Against the bursting root the gap is below the reference's absolute
    # 1e-12, where the program names by-influence.
    path = Path(__file__).parent / "data" / "relative_tie.jsonl"
    ref = oracle.reference(path)
    payload = _run(["compare", "--format", "json", "--dataset", str(path), "--root", "burst",
                    "--nf", "2", "--k", "1", "--ttl", "1"])
    block = payload["results"][0]
    assert block["winner"] == "by_influence"
    expected = {}
    for category in oracle.CATEGORIES:
        net = oracle.build_network(ref, "burst", 2, 1, 1, category)
        rates = {a: (ref.table[a].tcr, ref.table[a].retweet_prob) for a in net.layers}
        expected[category] = oracle.forward_pass(net.layers, net.edges, rates, net.root, net.sink, net.ttl)
    assert oracle.winner(*(total for _, total in expected.values())) == "tie"
    assert checks._check_totals(block, expected) == []
