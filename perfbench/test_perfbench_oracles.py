"""Tests of the benchmark's reference computations, checks and tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import checks
import inputs
import oracle
import run
from tracer import Tracer

sys.path.insert(0, str(run.SRC))

NOW = datetime(2020, 6, 1, tzinfo=timezone.utc)


def _cli(argv: list[str]) -> dict:
    from influence_tracker import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def _account(account_id, followers=10, following=5, follower_ids=(), tweets=()):
    return oracle.RawAccount(account_id, account_id.upper(), followers, following,
                             list(follower_ids), NOW, list(tweets))


def test_h_index_scan_matches_brute_force():
    for n in range(6):
        for counts in itertools.product(range(6), repeat=n):
            brute = max(h for h in range(n + 1) if sum(c >= h for c in counts) >= h)
            assert oracle.h_index_scan(list(counts)) == brute
    assert oracle.h_index_scan([10, 8, 5, 4, 3]) == 4


def test_newest_window_keeps_newest_hundred_with_id_ties():
    tweets = [(NOW - timedelta(minutes=i // 2), f"t{i:03d}", 0, 0, False) for i in range(150)]
    random.Random(1).shuffle(tweets)
    window = oracle.newest_window(tweets)
    assert len(window) == 100
    assert [t[1] for t in window] == [f"t{i:03d}" for i in range(100)]


def test_rates_follow_the_formula():
    tweets = [(NOW - timedelta(days=d), f"t{d}", rt, 2 * rt, d % 2 == 0)
              for d, rt in zip(range(4), (5, 3, 1, 0))]
    got = oracle.rates(_account("a", followers=2500, following=0, tweets=tweets), NOW)
    assert got.tcr == 4 / 3
    assert got.influence == pytest.approx(4 / 3 * 1000 * math.log10(2501))
    assert (got.retweet_h, got.favorite_h) == (2, 2)
    assert got.retweet_prob == 0.5
    assert got.retweet_h_daily == 2 / 3
    assert oracle.rates(_account("stub"), NOW) == oracle.Rates(0.0, 0.0, 0.0, 0, 0, 0.0, 0.0)


def test_build_network_by_definition():
    # r <- {a, b, c}; a <- {b, x, r}; b <- {d}; c, d, x <- nobody.
    accounts = {
        "r": _account("r", follower_ids=["a", "b", "c", "ghost"]),
        "a": _account("a", followers=50, follower_ids=["b", "x", "r"]),
        "b": _account("b", followers=40, follower_ids=["d"]),
        "c": _account("c", followers=30),
        "d": _account("d", followers=20),
        "x": _account("x", followers=99),
    }
    ref = oracle.Reference("t", accounts, NOW, {a: oracle.rates(x, NOW) for a, x in accounts.items()}, {})
    net = oracle.build_network(ref, "r", n_f=2, k=2, ttl=2, category="by_followers")
    # n_f=2 keeps the two smallest resolvable ids: r sees a, b; a sees b, r.
    assert net.layers == {"r": 0, "a": 1, "b": 1, "d": 2}
    assert net.edges == {("r", "a"), ("r", "b"), ("a", "b"), ("b", "d"), ("d", "__sink__")}


def _random_layered(rng, widths):
    layers = {"root": 0}
    names = [["root"]]
    for depth, width in enumerate(widths, start=1):
        names.append([f"n{depth}-{i}" for i in range(width)])
        layers.update({n: depth for n in names[-1]})
    rates = {n: (rng.uniform(0.1, 5.0), rng.uniform(0.0, 1.0)) for n in layers}
    return layers, names, rates


def test_forward_pass_matches_closed_form_on_dense_layers():
    rng = random.Random(7)
    layers, names, rates = _random_layered(rng, [3, 4, 2, 3])
    edges = {(u, v) for a, b in zip(names, names[1:]) for u in a for v in b}
    edges |= {(u, "sink") for u in names[-1]}
    paths, total = oracle.forward_pass(layers, edges, rates, "root", "sink", 4)
    want_paths, want_total = oracle.dense_closed_form(
        rates["root"][0], [[rates[n] for n in layer] for layer in names[1:]])
    assert paths == want_paths == 3 * 4 * 2 * 3
    assert total == pytest.approx(want_total, rel=1e-12)


def test_forward_pass_matches_path_walk_on_sparse_graphs():
    rng = random.Random(3)
    for _ in range(50):
        layers, names, rates = _random_layered(rng, [3, 3, 3])
        rates["n1-0"] = (0.0, 0.5)  # a silent account transmits nothing
        nodes = list(layers)
        edges = {(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.3}
        edges |= {(u, "sink") for u in names[-1] if rng.random() < 0.7}
        want_paths, terms = 0, []
        for chain in itertools.product(*names[1:]):
            path = ("root", *chain)
            if all(e in edges for e in zip(path, path[1:])) and (path[-1], "sink") in edges:
                want_paths += 1
                terms.append(math.prod(oracle.transmission(rates[u][0], *rates[v])
                                       for u, v in zip(path, path[1:])))
        paths, total = oracle.forward_pass(layers, edges, rates, "root", "sink", 3)
        assert paths == want_paths
        assert total == pytest.approx(math.fsum(terms), rel=1e-12, abs=1e-300)


def test_checks_accept_the_program_and_catch_a_wrong_score(tmp_path):
    path = tmp_path / "small.jsonl"
    inputs._gen(5, 80, 20, path)
    ref = oracle.reference(path)
    op = {"handles": ["user_00003", "@USER_00010", "acct-00042", "User_00077"]}
    payload = _cli(["score", "--format", "json", "--dataset", str(path), *op["handles"]])
    assert checks.check_score(payload, op, [], ref) == []
    active = next(r for r in payload["rows"] if r["tcr"] > 0)
    active["tcr"] *= 1 + 1e-6
    assert checks.check_score(payload, op, [], ref)
    payload["rows"].reverse()
    assert any("out of order" in f for f in checks.check_score(payload, op, [], ref))


def test_checks_accept_the_program_and_catch_a_wrong_network(tmp_path):
    path = tmp_path / "sweep.jsonl"
    inputs._gen(9, 120, 40, path)
    ref = oracle.reference(path)
    root = max(ref.accounts, key=lambda a: (len(ref.accounts[a].follower_ids), a))
    op = {"root": root, "ttl": 3, "configs": [(20, 3), (10, 2)]}
    payload = _cli(["compare", "--format", "json", "--dump-networks", "--dataset", str(path),
                    "--root", root, "--nf", "20,10", "--k", "3,2", "--ttl", "3"])
    networks = run._expected_networks(ref, op)
    assert checks.check_sweep(payload, op, networks, ref) == []
    payload["results"][0]["by_influence"]["ttt"] *= 1.001
    payload["results"][1]["networks"]["by_followers"]["edges"].pop()
    faults = checks.check_sweep(payload, op, networks, ref)
    assert any("total" in f for f in faults) and any("edges differ" in f for f in faults)


def test_dense_input_gives_k_to_the_ttl_paths_and_the_closed_form(tmp_path):
    path, [op] = inputs.make_compare_dense(4, tmp_path)
    op = {**op, "configs": [(8, 2), (8, 3)]}
    ref = oracle.reference(path)
    payload = _cli(["compare", "--format", "json", "--dataset", str(path), "--root", op["root"],
                    "--nf", "8,8", "--k", "2,3", "--ttl", str(op["ttl"])])
    assert [b["by_influence"]["path_count"] for b in payload["results"]] == [2 ** 6, 3 ** 6]
    networks = run._expected_networks(ref, op)
    assert checks.check_dense(payload, op, networks, ref) == []
    payload["results"][1]["by_followers"]["path_count"] -= 1
    assert checks.check_dense(payload, op, networks, ref)


def test_tracer_self_time_and_restore():
    from influence_tracker import cli, models

    tracer = Tracer({})
    tracer.begin_op()
    outer = tracer.open(tracer.name_id("outer"))
    inner = tracer.open(tracer.name_id("inner"))
    tracer.close(inner)
    tracer.close(outer)
    op = tracer.per_op()[0]
    assert op["outer"][2] == op["inner"][2] == 1
    assert op["outer"][1] == pytest.approx(op["outer"][0] - op["inner"][0], abs=1e-12)

    before = (cli.load_dataset, models.TweetWindow.__dict__["from_tweets"])
    tracer.install()
    assert cli.load_dataset is not before[0]
    tracer.uninstall()
    assert (cli.load_dataset, models.TweetWindow.__dict__["from_tweets"]) == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.CHECKOUT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(inputs.WORKLOADS)
