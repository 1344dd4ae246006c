import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import influence_tracker.diffusion
from influence_tracker import (
    DatasetError,
    LayeredNetwork,
    NetworkNode,
    RankingCategory,
    UnknownAccount,
    build_network,
    compare_networks,
    diffusion_totals,
    enumerate_paths,
    generate_synthetic,
    load_dataset,
    save_dataset,
    total_tweet_transmission,
    tweet_transmission,
)

from conftest import AS_OF, dataset_from_spec, layered_spec, network_dict

RELATIVE_TIE = Path(__file__).parent / "data" / "relative_tie.jsonl"


def node(account_id, layer, tcr=1.0, rt=0.5):
    return NetworkNode(
        account_id=account_id, layer=layer, tcr=tcr, retweet_prob=rt,
        influence=0.0, followers_count=0,
    )


def brute_force_paths(network):
    """Every (ttl+1)-edge walk root -> ... -> sink in the network's dump,
    then filtered to the layer sequence 0, 1, ..., ttl, sink. Recomputes
    edge factors inline. Also checks that the dump wires exactly the
    layer-ttl nodes to the sink."""
    dump = network_dict(network)
    sink_id = dump["sink_id"]
    layer_of = {n["id"]: n["layer"] for n in dump["nodes"]}
    adjacency = {}
    for e in dump["edges"]:
        adjacency.setdefault(e["from"], set()).add(e["to"])
    assert {src for src, dsts in adjacency.items() if sink_id in dsts} == {
        n for n, layer in layer_of.items() if layer == network.ttl
    }

    def tt(src, dst):
        up, down = network.nodes[src], network.nodes[dst]
        if up.tcr == 0:
            return 0.0
        return (down.tcr / up.tcr) * down.retweet_prob

    walks = []

    def grow(walk):
        if len(walk) == network.ttl + 2:
            if walk[-1] == sink_id:
                walks.append(tuple(walk))
            return
        for succ in adjacency.get(walk[-1], ()):
            grow(walk + [succ])

    grow([network.root])

    qualifying = []
    for walk in walks:
        layers = [layer_of[n] for n in walk]
        if layers == list(range(network.ttl + 1)) + [None]:
            product = math.prod(tt(a, b) for a, b in zip(walk[:-2], walk[1:-1]))
            qualifying.append((walk, product))
    return qualifying


def fully_connected(k, ttl, seed=0):
    """Root and ttl layers of k nodes, each node wired to every node of the
    next layer; rates drawn from ``seed``."""
    rng = random.Random(seed)
    layers = [["root"]] + [[f"d{d}-{i}" for i in range(k)] for d in range(1, ttl + 1)]
    network = LayeredNetwork(root="root", category=RankingCategory.BY_INFLUENCE, ttl=ttl)
    for depth, ids in enumerate(layers):
        for account_id in ids:
            network.nodes[account_id] = node(account_id, depth, tcr=rng.uniform(0.5, 5.0), rt=rng.random())
    for upper, lower in zip(layers, layers[1:]):
        network.edges.update((src, dst) for src in upper for dst in lower)
    return network


# Edges fully_connected(k=2, ttl=3) lacks that carry no tweet: root -> d1-0
# -> d1-1 -> d3-0 is three hops but not one per layer, root -> d2-0 skips a
# layer, d3-1 -> d2-0 points back up and d3-0 -> d3-1 stays on the last layer.
STRAY_EDGES = {("d1-0", "d1-1"), ("d1-1", "d3-0"), ("root", "d2-0"), ("d3-1", "d2-0"),
               ("d3-0", "d3-1")}


def relative_gap(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


class TestTweetTransmission:
    def test_ratio_times_retweet_prob(self):
        up = node("u", 1, tcr=10.0)
        down = node("d", 2, tcr=5.0, rt=0.4)
        assert tweet_transmission(up, down) == pytest.approx((5 / 10) * 0.4)

    def test_zero_retweet_prob_annihilates(self):
        assert tweet_transmission(node("u", 1, tcr=3.0), node("d", 2, tcr=9.0, rt=0.0)) == 0.0

    def test_equal_rates_certain_retweet(self):
        assert tweet_transmission(node("u", 1, tcr=7.0), node("d", 2, tcr=7.0, rt=1.0)) == 1.0

    def test_silent_upstream_transmits_nothing(self):
        assert tweet_transmission(node("u", 1, tcr=0.0), node("d", 2, tcr=9.0, rt=1.0)) == 0.0


class TestEnumeratePaths:
    def test_single_chain(self):
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("a",)},
            "a": {"follower_ids": ("b",)},
            "b": {"follower_ids": ("c",)},
            "c": {},
        })
        network = build_network(dataset, "root", 10, 3, 3, RankingCategory.BY_FOLLOWERS, AS_OF)
        paths = enumerate_paths(network)
        assert len(paths) == 1
        assert paths[0].nodes == ("root", "a", "b", "c", network.sink_id)
        assert len(paths[0].edge_tt) == 3

    def test_complete_tree_has_27_paths(self, tree_dataset):
        network = build_network(tree_dataset, "n0", 50, 3, 3, RankingCategory.BY_FOLLOWERS, AS_OF)
        paths = enumerate_paths(network)
        assert len(paths) == 27

    def test_degenerate_network_has_no_paths(self):
        dataset = dataset_from_spec({"a": {}, "b": {}})
        network = build_network(dataset, "a", 10, 3, 3, RankingCategory.BY_FOLLOWERS, AS_OF)
        assert enumerate_paths(network) == []

    def test_paths_in_lexicographic_order(self, tree_dataset):
        network = build_network(tree_dataset, "n0", 50, 3, 3, RankingCategory.BY_FOLLOWERS, AS_OF)
        sequences = [p.nodes for p in enumerate_paths(network)]
        assert sequences == sorted(sequences)

    def test_path_shape(self):
        dataset = generate_synthetic(seed=23, accounts=60, max_followers=15)
        root = max(dataset.accounts, key=lambda a: len(dataset.accounts[a].follower_ids))
        network = build_network(dataset, root, 15, 3, 3, RankingCategory.BY_INFLUENCE, AS_OF)
        for path in enumerate_paths(network):
            assert len(path.nodes) == network.ttl + 2
            assert len(set(path.nodes)) == len(path.nodes)
            layers = [network.nodes[n].layer for n in path.nodes[:-1]]
            assert layers == [0, 1, 2, 3]
            assert path.nodes[-1] == network.sink_id
            assert path.path_tt == math.prod(path.edge_tt)

    @pytest.mark.parametrize("seed", [1, 7, 19, 35])
    def test_matches_brute_force_walks(self, seed):
        dataset = generate_synthetic(seed=seed, accounts=45, max_followers=10)
        root = max(dataset.accounts, key=lambda a: len(dataset.accounts[a].follower_ids))
        category = RankingCategory.BY_INFLUENCE if seed % 2 else RankingCategory.BY_FOLLOWERS
        network = build_network(dataset, root, 10, 3, 3, category, AS_OF)
        got = {p.nodes: p.path_tt for p in enumerate_paths(network)}
        want = dict(brute_force_paths(network))
        assert set(got) == set(want)
        for nodes, product in want.items():
            assert got[nodes] == pytest.approx(product, rel=1e-12, abs=0.0)

    def test_intra_layer_edges_never_walked(self):
        # b1 and b2 both sit on layer 1; the b1->b2 edge must not appear in paths
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("b1", "b2")},
            "b1": {"follower_ids": ("c",), "followers_count": 60},
            "b2": {"follower_ids": ("b1",), "followers_count": 50},
            "c": {},
        })
        network = build_network(dataset, "root", 10, 2, 2, RankingCategory.BY_FOLLOWERS, AS_OF)
        assert ("b2", "b1") in network.edges
        for path in enumerate_paths(network):
            assert ("b2", "b1") not in list(zip(path.nodes, path.nodes[1:]))


class TestTotalTweetTransmission:
    def test_empty(self):
        assert total_tweet_transmission([]) == 0.0

    def test_single_path_product(self):
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("a",), "retweet_fraction": 0.5},
            "a": {"follower_ids": ("b",), "retweet_fraction": 0.5},
            "b": {"follower_ids": ("c",), "retweet_fraction": 0.5},
            "c": {"retweet_fraction": 0.5},
        })
        network = build_network(dataset, "root", 10, 1, 3, RankingCategory.BY_FOLLOWERS, AS_OF)
        paths = enumerate_paths(network)
        assert [p.edge_tt for p in paths] == [(0.5, 0.5, 0.5)]
        assert total_tweet_transmission(paths) == pytest.approx(0.125)

    def test_tree_of_unit_edges_sums_to_27(self, tree_dataset):
        network = build_network(tree_dataset, "n0", 50, 3, 3, RankingCategory.BY_FOLLOWERS, AS_OF)
        paths = enumerate_paths(network)
        assert all(p.path_tt == 1.0 for p in paths)
        assert total_tweet_transmission(paths) == 27.0

    def test_scaling_every_rate_leaves_totals_unchanged(self):
        dataset = generate_synthetic(seed=29, accounts=50, max_followers=12)
        root = max(dataset.accounts, key=lambda a: len(dataset.accounts[a].follower_ids))
        network = build_network(dataset, root, 12, 3, 3, RankingCategory.BY_INFLUENCE, AS_OF)
        base = total_tweet_transmission(enumerate_paths(network))
        scaled = dataclasses.replace(network)
        scaled.nodes = {
            nid: dataclasses.replace(n, tcr=n.tcr * 3.7) for nid, n in network.nodes.items()
        }
        rescored = total_tweet_transmission(enumerate_paths(scaled))
        assert rescored == pytest.approx(base, rel=1e-12)

    def test_path_product_telescopes(self):
        # Along root = a0, a1, ..., a_ttl the tcr ratios of the edge factors
        # cancel: a path scores (tcr[ttl] / tcr[0]) * rp[1] * ... * rp[ttl].
        # A stub (no tweets, so tcr and rp 0) zeroes every path through it.
        paths = through_stub = 0
        for seed in range(1, 101):
            network = seeded_network(seed)
            for path in enumerate_paths(network):
                chain = [network.nodes[node_id] for node_id in path.nodes[:-1]]
                paths += 1
                if any(n.tcr == 0 for n in chain):
                    through_stub += 1
                    assert path.path_tt == 0.0, f"seed {seed}, path {path.nodes}"
                    continue
                telescoped = chain[-1].tcr / chain[0].tcr * math.prod(n.retweet_prob for n in chain[1:])
                assert relative_gap(path.path_tt, telescoped) < 1e-12, f"seed {seed}, path {path.nodes}"
        assert (paths, through_stub) == (1146, 398)

    def test_prefix_totals_never_decrease(self):
        dataset = generate_synthetic(seed=31, accounts=50, max_followers=12)
        root = max(dataset.accounts, key=lambda a: len(dataset.accounts[a].follower_ids))
        network = build_network(dataset, root, 12, 3, 3, RankingCategory.BY_FOLLOWERS, AS_OF)
        paths = enumerate_paths(network)
        assert paths
        totals = [total_tweet_transmission(paths[:i]) for i in range(len(paths) + 1)]
        assert all(a <= b for a, b in zip(totals, totals[1:]))
        assert all(tt >= 0.0 for p in paths for tt in p.edge_tt)

    def test_zero_retweet_node_zeroes_its_paths(self):
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("a",), "retweet_fraction": 0.5},
            "a": {"follower_ids": ("b",), "retweet_fraction": 0.0},
            "b": {"follower_ids": ("c",), "retweet_fraction": 0.5},
            "c": {"retweet_fraction": 0.5},
        })
        network = build_network(dataset, "root", 10, 1, 3, RankingCategory.BY_FOLLOWERS, AS_OF)
        paths = enumerate_paths(network)
        assert paths and all(p.path_tt == 0.0 for p in paths)


class TestCompareNetworks:
    def test_identical_selections_tie(self, tree_dataset):
        result = compare_networks(tree_dataset, "n0", 50, 3, 3, AS_OF)
        assert result.difference == 0.0
        assert result.winner is None
        assert result.ttt[RankingCategory.BY_INFLUENCE] == result.ttt[RankingCategory.BY_FOLLOWERS] == 27.0

    def test_silent_big_accounts_lose(self):
        # the highest-follower followers never tweet, so ranking by raw
        # count walks into dead ends while ranking by score does not
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("big", "small"), "retweet_fraction": 0.5},
            "big": {"followers_count": 10**6, "tweets": None},
            "small": {"followers_count": 100, "follower_ids": ("s2",), "retweet_fraction": 0.5},
            "s2": {"followers_count": 90, "follower_ids": ("s3",), "retweet_fraction": 0.5},
            "s3": {"followers_count": 80, "retweet_fraction": 0.5},
        })
        result = compare_networks(dataset, "root", 10, 1, 3, AS_OF)
        assert result.ttt[RankingCategory.BY_INFLUENCE] == pytest.approx(0.125)
        assert result.ttt[RankingCategory.BY_FOLLOWERS] == 0.0
        assert result.winner is RankingCategory.BY_INFLUENCE
        assert result.difference == pytest.approx(0.125)

    @pytest.mark.parametrize("totals, winner", [
        ((0.0, 0.0), None),
        ((1.0, 1.0 - 2**-30), None),
        ((1.0 - 2**-30, 1.0), None),
        ((1.0, 1.0 - 2**-29), RankingCategory.BY_INFLUENCE),
        ((1e-300, 1e-300 * (1 + 2**-29)), RankingCategory.BY_FOLLOWERS),
        ((0.0, 1e-300), RankingCategory.BY_FOLLOWERS),
        ((1e-12, 1e-13), RankingCategory.BY_INFLUENCE),
    ])
    def test_a_tie_is_a_gap_within_a_share_of_the_larger_total(self, tree_dataset, monkeypatch, totals, winner):
        # 2**-30 is just under TIE_TOLERANCE, 2**-29 just over it.
        by_category = dict(zip(RankingCategory, totals))
        monkeypatch.setattr(influence_tracker.diffusion, "diffusion_totals",
                            lambda network: (1, by_category[network.category]))
        assert compare_networks(tree_dataset, "n0", 50, 3, 3, AS_OF).winner is winner

    @pytest.mark.parametrize("root, totals", [
        ("calm", (1e-5, 1 / 700_000)),
        ("burst", (1e-5 / 8.64e6, 1 / 700_000 / 8.64e6)),
    ])
    def test_a_tie_does_not_hang_on_the_roots_rate(self, root, totals):
        # One total is seven times the other under either root, though under
        # the bursting root (100 tweets at the capture instant) the gap is
        # below 1e-12.
        dataset = load_dataset(RELATIVE_TIE)
        result = compare_networks(dataset, root, 2, 1, 1, dataset.captured_at)
        assert [set(network.nodes) for network in result.networks.values()] == [{root, "x1"}, {root, "x2"}]
        assert tuple(result.ttt.values()) == pytest.approx(totals, rel=1e-12)
        assert result.winner is RankingCategory.BY_INFLUENCE

    def test_unknown_root_propagates(self, tree_dataset):
        with pytest.raises(UnknownAccount):
            compare_networks(tree_dataset, "ghost", 10, 3, 3, AS_OF)

    def test_reports_carry_path_counts(self, tree_dataset):
        result = compare_networks(tree_dataset, "n0", 50, 3, 3, AS_OF)
        assert result.paths[RankingCategory.BY_INFLUENCE] == 27
        assert result.paths[RankingCategory.BY_FOLLOWERS] == 27

    def test_huge_ttl_stops_when_the_network_stops_growing(self, tmp_path):
        dataset = generate_synthetic(seed=7, accounts=30, max_followers=10)
        root = max(sorted(dataset.accounts), key=lambda a: len(dataset.accounts[a].follower_ids))
        path = tmp_path / "synthetic.jsonl"
        save_dataset(dataset, path)
        proc = subprocess.run(
            [sys.executable, "-m", "influence_tracker.cli", "compare", "--dataset", str(path),
             "--root", root, "--ttl", "1000000000000000000", "--format", "json"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(Path(influence_tracker.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        block = json.loads(proc.stdout)["results"][0]
        assert block["by_influence"]["path_count"] == block["by_followers"]["path_count"] == 0

    def test_path_count_past_float_range_refused(self):
        # 1,100 layers of 2: 2**1100 paths, past sys.float_info.max, though
        # no account retweets and the total is 0.0
        dataset = dataset_from_spec(layered_spec(1100, 2, retweet_fraction=0.0))
        assert diffusion_totals(build_network(
            dataset, "root", 2, 2, 1100, RankingCategory.BY_FOLLOWERS, AS_OF
        )) == (2**1100, 0.0)
        with pytest.raises(DatasetError, match="by_influence network for n_f=2, k=2, ttl=1100"):
            compare_networks(dataset, "root", 2, 2, 1100, AS_OF)

    def test_never_enumerates_paths(self, tree_dataset, monkeypatch):
        def refuse(network):
            raise AssertionError("compare_networks enumerated paths")

        monkeypatch.setattr(influence_tracker.diffusion, "enumerate_paths", refuse)
        assert compare_networks(tree_dataset, "n0", 50, 3, 3, AS_OF).ttt[RankingCategory.BY_INFLUENCE] == 27.0


def seeded_network(seed):
    """A ttl-3 network on a 45-account snapshot, by influence for odd seeds."""
    dataset = generate_synthetic(seed=seed, accounts=45, max_followers=10)
    root = max(dataset.accounts, key=lambda a: len(dataset.accounts[a].follower_ids))
    category = RankingCategory.BY_INFLUENCE if seed % 2 else RankingCategory.BY_FOLLOWERS
    return build_network(dataset, root, 10, 3, 3, category, AS_OF)


class TestDiffusionTotals:
    def test_matches_enumeration_on_seeded_networks(self):
        for seed in range(1, 101):
            network = seeded_network(seed)
            paths = enumerate_paths(network)
            count, total = diffusion_totals(network)
            assert count == len(paths), f"seed {seed}"
            assert relative_gap(total, total_tweet_transmission(paths)) < 1e-12, f"seed {seed}"

    def test_an_added_next_layer_edge_never_lowers_the_totals(self):
        # Every edge factor is >= 0, so a new step from layer d into layer
        # d+1 can add paths and transmission but never take any away.
        rng = random.Random(7)
        grew = 0
        for seed in range(1, 101):
            network = seeded_network(seed)
            layers = {}
            for node_id, n in sorted(network.nodes.items()):
                layers.setdefault(n.layer, []).append(node_id)
            missing = [(src, dst) for depth in range(network.ttl) for src in layers.get(depth, ())
                       for dst in layers.get(depth + 1, ()) if (src, dst) not in network.edges]
            count, total = diffusion_totals(network)
            for edge in rng.sample(missing, min(10, len(missing))):
                network.edges.add(edge)
                wider_count, wider_total = diffusion_totals(network)
                assert wider_count >= count and wider_total >= total, f"seed {seed}, edge {edge}"
                grew += wider_count > count
                count, total = wider_count, wider_total
        assert grew > 500  # most picks join a chain that reaches layer ttl

    def test_fully_connected_layers_give_k_to_the_ttl_paths(self):
        network = fully_connected(k=4, ttl=5)
        count, total = diffusion_totals(network)
        assert count == 4**5
        assert relative_gap(total, total_tweet_transmission(enumerate_paths(network))) < 1e-12

    def test_insertion_order_leaves_total_bit_identical(self):
        reference = fully_connected(k=5, ttl=4, seed=5)
        rng = random.Random(11)
        for _ in range(5):
            nodes, edges = list(reference.nodes.items()), list(reference.edges)
            rng.shuffle(nodes)
            rng.shuffle(edges)
            shuffled = dataclasses.replace(reference, nodes=dict(nodes), edges=set(edges))
            assert diffusion_totals(shuffled) == diffusion_totals(reference)

    def test_total_does_not_depend_on_hash_seed(self):
        script = ("from test_diffusion import fully_connected; "
                  "from influence_tracker import diffusion_totals; "
                  "print(repr(diffusion_totals(fully_connected(k=5, ttl=4, seed=5))))")
        path = os.pathsep.join([str(Path(influence_tracker.__file__).parents[1]), str(Path(__file__).parent)])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(salt)},
            ).stdout
            for salt in range(4)
        }
        assert len(outputs) == 1, outputs

    def test_ends_are_added_left_to_right(self):
        # 1 + 1e-16 + 1e-16 is 1.0 added in order; the compensated sum() of
        # Python 3.12+ gives 1.0000000000000002, so output would vary by version.
        network = LayeredNetwork(root="root", category=RankingCategory.BY_INFLUENCE, ttl=1)
        network.nodes["root"] = node("root", 0, tcr=1.0)
        for account_id, tcr in (("a", 1.0), ("b", 1e-16), ("c", 1e-16)):
            network.nodes[account_id] = node(account_id, 1, tcr=tcr, rt=1.0)
            network.edges.add(("root", account_id))
        assert diffusion_totals(network) == (3, 1.0)

    def test_only_layer_steps_that_reach_the_sink_count(self):
        network = fully_connected(k=2, ttl=3)
        network.edges |= STRAY_EDGES
        paths = enumerate_paths(network)
        count, total = diffusion_totals(network)
        assert count == len(paths) == 8
        assert relative_gap(total, total_tweet_transmission(paths)) < 1e-12

    # Nodes that no chain of next-layer steps from the root reaches, each
    # with rates that would change the totals if it were counted.
    UNREACHED = {
        # A second layer-0 node, with steps into layer 1 of its own.
        "second-root": ([node("other", 0, tcr=2.0)], {("other", "d1-0"), ("other", "d1-1")}),
        # A layer-ttl node whose only edge in skips layer 1.
        "skip-edge": ([node("skipped", 2, tcr=3.0, rt=0.9)], {("root", "skipped")}),
        # A node one step past layer ttl, below every layer-ttl node.
        "past-ttl": ([node("deep", 3, tcr=4.0, rt=0.9)], {("d2-0", "deep"), ("d2-1", "deep")}),
    }

    @pytest.mark.parametrize("case", UNREACHED)
    def test_nodes_no_next_layer_step_reaches_add_nothing(self, case):
        extra_nodes, extra_edges = self.UNREACHED[case]
        network = fully_connected(k=2, ttl=2, seed=3)
        want = diffusion_totals(network)
        network.nodes.update((n.account_id, n) for n in extra_nodes)
        network.edges |= extra_edges
        paths = enumerate_paths(network)
        count, total = diffusion_totals(network)
        assert count == len(paths) == 4
        assert relative_gap(total, total_tweet_transmission(paths)) < 1e-12
        assert (count, total) == want

    def test_shifting_every_layer_leaves_the_totals_unchanged(self):
        # Chains end ttl layers below the root, wherever the root sits.
        network = fully_connected(k=3, ttl=3, seed=4)
        shifted = dataclasses.replace(network, nodes={
            account_id: dataclasses.replace(n, layer=n.layer + 2) for account_id, n in network.nodes.items()
        })
        assert diffusion_totals(shifted) == diffusion_totals(network)
        assert len(enumerate_paths(shifted)) == 27


class TestSuccessors:
    def test_only_steps_into_the_next_layer(self):
        network = fully_connected(k=2, ttl=3)
        want = network.successors()
        assert want == {
            "root": ["d1-0", "d1-1"],
            "d1-0": ["d2-0", "d2-1"], "d1-1": ["d2-0", "d2-1"],
            "d2-0": ["d3-0", "d3-1"], "d2-1": ["d3-0", "d3-1"],
            "d3-0": [], "d3-1": [],
        }
        network.edges |= STRAY_EDGES
        assert network.successors() == want
