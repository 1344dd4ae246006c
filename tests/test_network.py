import random
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest

from influence_tracker import (
    ClockSkew,
    RankingCategory,
    SnapshotDataset,
    TweetWindow,
    UnknownAccount,
    build_network,
    compare_networks,
    followers_of,
    generate_synthetic,
    influence_metric,
    rank_followers,
    retweet_probability,
)
from influence_tracker import network as network_module

from conftest import AS_OF, complete_tree_spec, dataset_from_spec, make_account, network_dict

BOTH_CATEGORIES = [RankingCategory.BY_INFLUENCE, RankingCategory.BY_FOLLOWERS]


def reference_expansion(dataset, root, n_f, k, ttl, category, as_of, key=None):
    """Recursive re-statement of the expansion rules, for cross-checking.

    Independently re-sorts candidates with a full decorate-sort and tracks
    layers in its own dict, relaxing a node's layer whenever a shorter
    depth is discovered (a node's layer is its shortest discovered depth).
    ``key``, when given, ranks by ``key(snapshot)`` in place of
    ``category``, so rankings the program does not offer can be built.
    Returns (node->layer map, edge set).
    """
    layers = {root: 0}
    edges = set()

    def candidates_of(account_id):
        ids = sorted(
            fid for fid in dataset.accounts[account_id].follower_ids
            if fid in dataset.accounts
        )[:n_f]
        decorated = []
        for fid in ids:
            snapshot = dataset.accounts[fid]
            if key is not None:
                score = key(snapshot)
            elif category is RankingCategory.BY_FOLLOWERS:
                score = float(snapshot.followers_count)
            else:
                score = influence_metric(snapshot, as_of).value
            decorated.append((-score, fid))
        decorated.sort()
        return [fid for _, fid in decorated[:k]]

    def expand(account_id, depth):
        if depth == ttl:
            return
        for fid in candidates_of(account_id):
            if fid == root:
                continue
            edges.add((account_id, fid))
            if fid not in layers or layers[fid] > depth + 1:
                layers[fid] = depth + 1
                expand(fid, depth + 1)

    expand(root, 0)
    return layers, edges


def network_layers_and_edges(network):
    layers = {n.account_id: n.layer for n in network.nodes.values()}
    return layers, network.edges


def dumped_sink_edges(network):
    """The (src, sink) edges of the network's dump."""
    dump = network_dict(network)
    return {(e["from"], e["to"]) for e in dump["edges"] if e["to"] == dump["sink_id"]}


def influence_key(snapshot):
    """The ByInfluence ranking key, scored directly."""
    return influence_metric(snapshot, AS_OF).value


def followers_key(snapshot):
    return snapshot.followers_count


class TestRankFollowers:
    def test_top_by_influence(self):
        dataset = dataset_from_spec({
            "a": {"followers_count": 10, "tweets": 10, "span_days": 1.0},
            "b": {"followers_count": 100, "tweets": 10, "span_days": 1.0},
            "c": {"followers_count": 1000, "tweets": 10, "span_days": 1.0},
            "d": {"followers_count": 10000, "tweets": 10, "span_days": 1.0},
            "e": {"followers_count": 100000, "tweets": 10, "span_days": 1.0},
        })
        candidates = [dataset.accounts[a] for a in "abcde"]
        assert rank_followers(candidates, influence_key, 3) == ["e", "d", "c"]

    def test_follower_count_ties_break_by_id(self):
        # Candidates arrive in id order, as followers_of gives them; equal
        # keys keep that order.
        candidates = [
            make_account("a", followers_count=50),
            make_account("b", followers_count=50),
        ]
        assert rank_followers(candidates, followers_key, 2) == ["a", "b"]

    def test_stub_ranks_last_by_influence(self):
        dataset = dataset_from_spec({
            "stub": {"followers_count": 10**6, "tweets": None},
            "active": {"followers_count": 10},
        })
        candidates = [dataset.accounts["stub"], dataset.accounts["active"]]
        assert rank_followers(candidates, influence_key, 2) == ["active", "stub"]

    def test_empty_input(self):
        assert rank_followers([], followers_key, 3) == []

    @pytest.mark.parametrize("category", BOTH_CATEGORIES)
    def test_matches_full_sort_oracle(self, category):
        # Few follower counts and mostly stubs (influence 0), so the top-20
        # cut falls inside a tie group in both categories.
        rng = random.Random(42)
        spec = {}
        for i in range(50):
            active = rng.random() > 0.7
            spec[f"f{i:02d}"] = {
                "followers_count": rng.randint(0, 4),
                "tweets": rng.randint(1, 30) if active else None,
                "span_days": rng.uniform(0.5, 10),
            }
        dataset = dataset_from_spec(spec)
        candidates = sorted(dataset.accounts.values(), key=lambda s: s.account_id)

        def oracle_score(snapshot):
            if category is RankingCategory.BY_FOLLOWERS:
                return float(snapshot.followers_count)
            return influence_metric(snapshot, AS_OF).value

        ranked = sorted(candidates, key=lambda s: (-oracle_score(s), s.account_id))
        assert oracle_score(ranked[19]) == oracle_score(ranked[20])
        key = followers_key if category is RankingCategory.BY_FOLLOWERS else influence_key
        assert rank_followers(candidates, key, 20) == [s.account_id for s in ranked[:20]]

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            rank_followers([make_account("a")], followers_key, 0)


class TestBuildNetwork:
    def test_complete_tree_shape(self, tree_dataset):
        network = build_network(
            tree_dataset, "n0", n_f=50, k=3, ttl=3, category=RankingCategory.BY_FOLLOWERS, as_of=AS_OF
        )
        assert len(network.nodes) == 1 + 3 + 9 + 27
        assert len(network.nodes) <= 1 + 3 + 9 + 27  # budget bound at k=3, ttl=3
        assert len(dumped_sink_edges(network)) == 27

    def test_minimal_chain(self):
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("f",)},
            "f": {},
        })
        network = build_network(
            dataset, "root", n_f=10, k=1, ttl=1, category=RankingCategory.BY_INFLUENCE, as_of=AS_OF
        )
        layers, edges = network_layers_and_edges(network)
        assert layers == {"root": 0, "f": 1}
        assert edges == {("root", "f")}
        assert dumped_sink_edges(network) == {("f", network.sink_id)}

    @pytest.mark.parametrize("category", BOTH_CATEGORIES)
    def test_matches_recursive_reference(self, category):
        dataset = generate_synthetic(seed=7, accounts=50, max_followers=20)
        root = max(dataset.accounts, key=lambda a: len(dataset.accounts[a].follower_ids))
        network = build_network(dataset, root, n_f=50, k=3, ttl=3, category=category, as_of=AS_OF)
        got_layers, got_edges = network_layers_and_edges(network)
        want_layers, want_edges = reference_expansion(dataset, root, 50, 3, 3, category, AS_OF)
        assert got_layers == want_layers
        assert got_edges == want_edges

    def test_root_selected_as_follower_is_dropped(self):
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("a",)},
            "a": {"follower_ids": ("root", "b"), "followers_count": 10},
            "b": {},
        })
        network = build_network(
            dataset, "root", n_f=10, k=2, ttl=2, category=RankingCategory.BY_FOLLOWERS, as_of=AS_OF
        )
        assert network.nodes["root"].layer == 0
        assert all(dst != "root" for _, dst in network.edges)
        assert network.nodes["b"].layer == 2

    def test_first_assignment_wins_on_shared_followers(self):
        # "c" is selected both at depth 1 (from root) and depth 2 (from a);
        # it must keep layer 1 and gain the extra edge.
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("a", "c")},
            "a": {"follower_ids": ("c",), "followers_count": 500},
            "c": {"followers_count": 400},
        })
        network = build_network(
            dataset, "root", n_f=10, k=2, ttl=2, category=RankingCategory.BY_FOLLOWERS, as_of=AS_OF
        )
        assert network.nodes["c"].layer == 1
        _, edges = network_layers_and_edges(network)
        assert ("a", "c") in edges and ("root", "c") in edges

    def test_layer_soundness_and_sink_completeness(self):
        dataset = generate_synthetic(seed=13, accounts=60, max_followers=15)
        root = max(dataset.accounts, key=lambda a: len(dataset.accounts[a].follower_ids))
        network = build_network(
            dataset, root, n_f=20, k=4, ttl=3, category=RankingCategory.BY_INFLUENCE, as_of=AS_OF
        )
        incoming = {}
        for src, dst in network.edges:
            incoming.setdefault(dst, []).append(src)
        for node in network.nodes.values():
            if node.layer == 0:
                continue
            parents = incoming.get(node.account_id, [])
            assert any(network.nodes[p].layer < node.layer for p in parents)
        sink_edges = dumped_sink_edges(network)
        for node in network.nodes.values():
            if node.layer == network.ttl:
                assert (node.account_id, network.sink_id) in sink_edges
        assert network.sink_id not in {e["from"] for e in network_dict(network)["edges"]}

    def test_budget_bound(self):
        dataset = generate_synthetic(seed=21, accounts=80, max_followers=25)
        root = max(dataset.accounts, key=lambda a: len(dataset.accounts[a].follower_ids))
        for k in (1, 2, 3):
            network = build_network(
                dataset, root, n_f=25, k=k, ttl=3, category=RankingCategory.BY_FOLLOWERS, as_of=AS_OF
            )
            assert len(network.nodes) <= 1 + k + k**2 + k**3

    def test_deterministic(self):
        dataset = generate_synthetic(seed=17, accounts=40, max_followers=12)
        root = sorted(dataset.accounts)[0]
        first = build_network(dataset, root, 12, 3, 3, RankingCategory.BY_INFLUENCE, AS_OF)
        second = build_network(dataset, root, 12, 3, 3, RankingCategory.BY_INFLUENCE, AS_OF)
        assert first.nodes == second.nodes
        assert first.edges == second.edges
        assert network_dict(first) == network_dict(second)

    def test_degenerate_network(self):
        dataset = dataset_from_spec({"loner": {"follower_ids": ()}, "other": {}})
        network = build_network(
            dataset, "loner", 10, 3, 3, RankingCategory.BY_INFLUENCE, AS_OF
        )
        assert set(network.nodes) == {"loner"}
        assert network.edges == set()

    def test_unknown_root(self):
        dataset = dataset_from_spec({"a": {}, "b": {}})
        with pytest.raises(UnknownAccount):
            build_network(dataset, "zzz", 10, 3, 3, RankingCategory.BY_INFLUENCE, AS_OF)

    def test_categories_diverge_when_big_accounts_are_silent(self):
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("big", "small")},
            "big": {"followers_count": 10**6, "tweets": None},
            "small": {"followers_count": 100, "tweets": 20, "span_days": 1.0},
        })
        by_influence = build_network(
            dataset, "root", 10, 1, 1, RankingCategory.BY_INFLUENCE, AS_OF
        )
        by_followers = build_network(
            dataset, "root", 10, 1, 1, RankingCategory.BY_FOLLOWERS, AS_OF
        )
        assert "small" in by_influence.nodes
        assert "big" in by_followers.nodes
        assert "big" not in by_influence.nodes


class TestExpansion:
    """A build fetches the followers of each node below layer ttl once, and
    of no other node."""

    @pytest.mark.parametrize("ttl", [1, 2, 3, 40])
    @pytest.mark.parametrize("category", BOTH_CATEGORIES)
    def test_expands_exactly_the_nodes_below_ttl(self, monkeypatch, ttl, category):
        calls = Counter()
        original = network_module.followers_of

        def counting(dataset, account_id, limit):
            calls[account_id] += 1
            return original(dataset, account_id, limit)

        monkeypatch.setattr(network_module, "followers_of", counting)
        dataset = generate_synthetic(seed=5, accounts=40, max_followers=8)
        root = max(sorted(dataset.accounts), key=lambda a: len(dataset.accounts[a].follower_ids))
        network = build_network(dataset, root, 8, 2, ttl, category, AS_OF)
        layers = [n.layer for n in network.nodes.values()]
        assert calls == Counter(a for a, n in network.nodes.items() if n.layer < ttl)
        assert layers == sorted(layers)  # nodes join layer by layer
        if ttl == 40:
            assert max(layers) < ttl - 1  # the network stopped growing first
        else:
            assert max(layers) == ttl


class TestScoreTable:
    """Each build scores an account at most once, and only when needed."""

    N_F, K, TTL = 6, 2, 3

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = Counter()
        original = network_module.influence_metric

        def counting(snapshot, as_of):
            calls[snapshot.account_id] += 1
            return original(snapshot, as_of)

        monkeypatch.setattr(network_module, "influence_metric", counting)
        return calls

    def build(self, category):
        dataset = generate_synthetic(seed=9, accounts=60, max_followers=20)
        root = max(sorted(dataset.accounts), key=lambda a: len(dataset.accounts[a].follower_ids))
        network = build_network(dataset, root, self.N_F, self.K, self.TTL, category, AS_OF)
        nodes = set(network.nodes)
        return dataset, network, nodes

    def test_by_influence_scores_each_candidate_and_node_once(self, counted):
        dataset, network, nodes = self.build(RankingCategory.BY_INFLUENCE)
        candidates = {
            s.account_id
            for n in network.nodes.values() if n.layer < self.TTL
            for s in followers_of(dataset, n.account_id, self.N_F)
        }
        assert len(candidates - nodes) > 0
        assert set(counted) == candidates | nodes
        assert set(counted.values()) == {1}

    def test_by_followers_scores_only_nodes(self, counted):
        _, _, nodes = self.build(RankingCategory.BY_FOLLOWERS)
        assert set(counted) == nodes
        assert set(counted.values()) == {1}

    def test_node_rates_match_direct_scoring(self):
        checked = set()
        for category in BOTH_CATEGORIES:
            dataset, network, nodes = self.build(category)
            for account_id in nodes:
                node = network.nodes[account_id]
                window = dataset.accounts[account_id].window
                score = influence_metric(dataset.accounts[account_id], AS_OF)
                assert (node.tcr, node.influence) == (score.tcr, score.value)
                assert node.retweet_prob == (retweet_probability(window) if window else 0.0)
            checked |= nodes
        assert any(dataset.accounts[a].window is None for a in checked)


class TestSharedTables:
    """Builds that share one score table score each account once per
    instant; no result depends on what ran before."""

    # Descending, ascending and repeated budgets.
    BUDGETS = [(50, 3), (10, 2), (50, 5), (10, 2), (80, 4)]
    TTL = 3

    @staticmethod
    def dataset(late_from=None):
        """The seed-11 dataset. With ``late_from``, the active accounts
        numbered from there on have their tweets moved a day past the
        capture time, which is then too early an instant to score them at.
        (A generated window ends at the capture time, so an instant before
        it would fail every active account alike.)"""
        dataset = generate_synthetic(seed=11, accounts=120, max_followers=60)
        if late_from is None:
            return dataset
        accounts = {}
        for account_id, snapshot in dataset.accounts.items():
            if snapshot.window is not None and int(account_id.removeprefix("acct-")) >= late_from:
                rows = [(tweet_id, created_at + timedelta(days=1), retweets, favorites, is_retweet)
                        for tweet_id, created_at, retweets, favorites, is_retweet in snapshot.window.rows()]
                snapshot = replace(snapshot, window=TweetWindow.from_tweets(rows))
            accounts[account_id] = snapshot
        return SnapshotDataset(dataset.dataset_id, accounts)

    @staticmethod
    def root_of(dataset):
        return max(sorted(dataset.accounts), key=lambda a: len(dataset.accounts[a].follower_ids))

    def outcome(self, dataset, n_f, k):
        """The comparison's totals, path counts, winner and network dumps, or
        the text of the ClockSkew it raised."""
        try:
            result = compare_networks(dataset, self.root_of(dataset), n_f, k, self.TTL, dataset.captured_at)
        except ClockSkew as exc:
            return str(exc)
        return (result.ttt, result.paths, result.difference, result.winner,
                {category: network_dict(network) for category, network in result.networks.items()})

    @pytest.mark.parametrize("budgets", [BUDGETS, BUDGETS[::-1]], ids=["listed", "reversed"])
    @pytest.mark.parametrize("late_from", [None, 108], ids=["on-time", "late"])
    def test_any_budget_order_matches_fresh_datasets(self, budgets, late_from):
        shared = self.dataset(late_from)
        outcomes = [self.outcome(shared, n_f, k) for n_f, k in budgets]
        assert outcomes == [self.outcome(self.dataset(late_from), n_f, k) for n_f, k in budgets]
        raised = [isinstance(outcome, str) for outcome in outcomes]
        if late_from is None:
            assert not any(raised)
        else:
            # Some budgets score a late account and some do not; the wider
            # ones do not all reach the same late account first.
            assert any(raised) and not all(raised)
            assert len({outcome for outcome in outcomes if isinstance(outcome, str)}) > 1
        fresh = self.dataset(late_from)
        assert shared == fresh
        assert repr(shared) == repr(fresh)

    @pytest.fixture
    def scoring_calls(self, monkeypatch):
        """Scoring calls made through the network module, by (account id, instant)."""
        calls = Counter()
        original = network_module.influence_metric

        def counting(snapshot, as_of):
            calls[snapshot.account_id, as_of] += 1
            return original(snapshot, as_of)

        monkeypatch.setattr(network_module, "influence_metric", counting)
        return calls

    def test_each_account_is_scored_once_per_instant(self, scoring_calls):
        dataset = self.dataset()
        root, first = self.root_of(dataset), dataset.captured_at
        scores = {}
        for n_f, k in self.BUDGETS:
            compare_networks(dataset, root, n_f, k, self.TTL, first, scores)
        assert len(scoring_calls) > 100
        assert sum(scoring_calls.values()) == len(scoring_calls)
        assert list(scores) == [first]
        assert set(scores[first]) == {account_id for account_id, _ in scoring_calls}
        at_first = dict(scores[first])

        later = first + timedelta(days=1)
        compare_networks(dataset, root, 10, 2, self.TTL, later, scores)
        rescored = {account_id for account_id, as_of in scoring_calls if as_of == later}
        assert {root} | {s.account_id for s in followers_of(dataset, root, 10)} <= rescored
        assert sum(scoring_calls.values()) == len(scoring_calls)
        assert list(scores) == [first, later]
        assert scores[first] == at_first
        assert scores[later] == {a: influence_metric(dataset.accounts[a], later) for a in rescored}
        assert scores[later][root] != at_first[root]

    def test_a_comparison_without_a_table_scores_each_account_once(self, scoring_calls):
        dataset = self.dataset()
        root = self.root_of(dataset)
        for n_f, k in self.BUDGETS:
            scoring_calls.clear()
            compare_networks(dataset, root, n_f, k, self.TTL, dataset.captured_at)
            # Nothing is kept between calls: each one scores its accounts again.
            assert scoring_calls and max(scoring_calls.values()) == 1


class TestExport:
    def test_dump_is_sorted_and_complete(self, tree_dataset):
        network = build_network(
            tree_dataset, "n0", 50, 3, 3, RankingCategory.BY_FOLLOWERS, AS_OF
        )
        dump = network_dict(network)
        assert len(dump["nodes"]) == len(network.nodes) + 1
        assert len(dump["edges"]) == len(network.edges) + 27
        keys = [(n["layer"] if n["layer"] is not None else 99, n["id"]) for n in dump["nodes"]]
        assert keys == sorted(keys)
        assert dump["nodes"][-1] == {"id": network.sink_id, "layer": None, "tcr": 0.0,
                                     "retweet_prob": 0.0, "influence": 0.0, "followers_count": 0}
        assert dumped_sink_edges(network) == {
            (n.account_id, network.sink_id) for n in network.nodes.values() if n.layer == 3
        }
        pairs = [(e["from"], e["to"]) for e in dump["edges"]]
        assert pairs == sorted(pairs)
