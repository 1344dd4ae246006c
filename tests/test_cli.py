import gc
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

import influence_tracker
from influence_tracker import (
    LayeredNetwork, NetworkNode, RankingCategory, build_network, generate_synthetic, load_dataset, save_dataset,
)
from influence_tracker.cli import main
from influence_tracker.reports import COMPARE_COLUMNS, SCORE_COLUMNS, _dumps, score_rows

from conftest import dataset_from_spec, layered_spec, network_dict
from test_store import OUT_OF_RANGE, account_line, header_account_tweet, tweet_line, write_lines

DATA_DIR = Path(__file__).parent / "data"
REFERENCE = str(DATA_DIR / "reference_accounts.jsonl")
RELATIVE_TIE = str(DATA_DIR / "relative_tie.jsonl")


@pytest.fixture(scope="module")
def schema_validator():
    with resources.files("influence_tracker.schemas").joinpath("report.schema.json").open() as fh:
        return Draft7Validator(json.load(fh))


@pytest.fixture
def synthetic_path(tmp_path):
    path = tmp_path / "synthetic.jsonl"
    save_dataset(generate_synthetic(seed=7, accounts=30, max_followers=10), path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv, *interpreter_flags, **env):
    """Run the CLI in a fresh interpreter, INFLUENCE_TRACKER_FORMAT unset and ``env`` added."""
    environ = {k: v for k, v in os.environ.items() if k != "INFLUENCE_TRACKER_FORMAT"}
    environ["PYTHONPATH"] = str(Path(influence_tracker.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "influence_tracker.cli", *argv],
        capture_output=True, timeout=60, env={**environ, **env},
    )


class TestScore:
    def test_reference_value_in_text_output(self, capsys):
        code, out, err = run(capsys, ["score", "--dataset", REFERENCE, "SkaiGr"])
        assert code == 0
        assert "35,356,300.107" in out

    def test_empty_handle_list_prints_header_only(self, capsys):
        code, out, _ = run(capsys, ["score", "--dataset", REFERENCE])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        assert lines[0].split()[0] == "handle"

    def test_unknown_handle_exits_2(self, capsys):
        code, _, err = run(capsys, ["score", "--dataset", REFERENCE, "ghost"])
        assert code == 2
        assert "ghost" in err

    def test_rows_sorted_by_influence_then_handle(self, capsys, tmp_path):
        spec = {
            "id-z": {"handle": "zeta", "followers_count": 100, "following_count": 10},
            "id-a": {"handle": "alpha", "followers_count": 100, "following_count": 10},
            "id-b": {"handle": "beta", "followers_count": 99999, "following_count": 10},
            "id-s": {"handle": "stub", "followers_count": 1234, "following_count": 0, "tweets": None},
        }
        path = tmp_path / "tie.jsonl"
        save_dataset(dataset_from_spec(spec), path)
        argv = ["score", "--dataset", str(path), "zeta", "stub", "alpha", "beta"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        handles = [line.split()[0] for line in out.splitlines()[1:]]
        assert handles == ["beta", "alpha", "zeta", "stub"]
        # A stub's counters print as ints and its rates as floats in every format.
        assert out.splitlines()[-1].split() == [
            "stub", "2023-05-01T00:00:00+00:00", "0.000", "0.000", "1,234", "0",
            "0", "0", "0.000", "0.000",
        ]
        _, out, _ = run(capsys, argv + ["--format", "csv"])
        assert out.split("\r\n")[-2] == (
            "stub,2023-05-01T00:00:00+00:00,0.000,0.000,1234,0,0,0,0.000,0.000"
        )
        _, out, _ = run(capsys, argv + ["--format", "json"])
        row = json.loads(out)["rows"][-1]
        assert [(row[c], type(row[c])) for c in SCORE_COLUMNS[2:]] == [
            (0.0, float), (0.0, float), (1234, int), (0, int),
            (0, int), (0, int), (0.0, float), (0.0, float),
        ]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["score", "--dataset", REFERENCE, "--format", "csv", "SkaiGr"])
        assert code == 0
        assert "\r\n" in out
        header = out.split("\r\n")[0]
        assert header == ",".join(SCORE_COLUMNS)
        assert "35356300.107" in out

    def test_json_format_validates(self, capsys, schema_validator):
        code, out, _ = run(
            capsys, ["score", "--dataset", REFERENCE, "--format", "json", "SkaiGr", "YourAnonNews"]
        )
        assert code == 0
        doc = json.loads(out)
        schema_validator.validate(doc)
        assert doc["rows"][0]["handle"] == "YourAnonNews"
        assert doc["rows"][0]["influence"] == pytest.approx(341594730.673, rel=1e-3)

    def test_format_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("INFLUENCE_TRACKER_FORMAT", "json")
        code, out, _ = run(capsys, ["score", "--dataset", REFERENCE, "SkaiGr"])
        assert code == 0
        assert json.loads(out)["command"] == "score"

    def test_explicit_format_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("INFLUENCE_TRACKER_FORMAT", "json")
        code, out, _ = run(capsys, ["score", "--dataset", REFERENCE, "--format", "csv", "SkaiGr"])
        assert code == 0
        assert out.startswith("handle,")

    def test_garbage_env_format_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("INFLUENCE_TRACKER_FORMAT", "yaml")
        code, _, err = run(capsys, ["score", "--dataset", REFERENCE, "SkaiGr"])
        assert code == 1
        assert "INFLUENCE_TRACKER_FORMAT" in err

    def test_as_of_flag_shifts_the_rate(self, capsys):
        code, out, _ = run(capsys, [
            "score", "--dataset", REFERENCE, "--format", "json",
            "--as-of", "2023-05-02T00:00:00Z", "SkaiGr",
        ])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["tcr"] == pytest.approx(50.0)

    def test_clamped_window_noted_on_stderr(self, capsys, tmp_path):
        spec = {"burst": {"tweets": 5, "span_days": 0.0}}
        path = tmp_path / "burst.jsonl"
        save_dataset(dataset_from_spec(spec), path)
        code, _, err = run(capsys, ["score", "--dataset", str(path), "burst"])
        assert code == 0
        assert "clamped" in err

    def test_empty_as_of_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["score", "--dataset", REFERENCE, "--as-of", "", "SkaiGr"])
        assert code == 1
        assert out == ""
        assert "cannot parse timestamp '' (expected RFC 3339)" in err

    def test_as_of_out_of_range_in_utc_is_usage_error(self, capsys):
        code, out, err = run(capsys, [
            "score", "--dataset", REFERENCE, "--as-of", "9999-12-31T23:59:59-01:00", "SkaiGr",
        ])
        assert code == 1
        assert out == ""
        assert "cannot parse timestamp '9999-12-31T23:59:59-01:00' (expected RFC 3339)" in err

    def test_account_id_resolves_too(self, capsys):
        code, out, _ = run(capsys, ["score", "--dataset", REFERENCE, "acct-sg"])
        assert code == 0
        assert "SkaiGr" in out


class TestCompare:
    def test_matches_engine(self, capsys, synthetic_path):
        from influence_tracker import RankingCategory, compare_networks
        dataset = load_dataset(synthetic_path)
        root = sorted(dataset.accounts)[0]
        expected = compare_networks(dataset, root, 10, 3, 3, dataset.captured_at)
        code, out, _ = run(capsys, [
            "compare", "--dataset", synthetic_path, "--root", root,
            "--nf", "10", "--format", "json",
        ])
        assert code == 0
        block = json.loads(out)["results"][0]
        assert block["by_influence"]["ttt"] == expected.ttt[RankingCategory.BY_INFLUENCE]
        assert block["by_followers"]["ttt"] == expected.ttt[RankingCategory.BY_FOLLOWERS]
        assert block["difference"] == expected.difference

    def test_text_mirrors_comparison_columns(self, capsys, synthetic_path):
        dataset = load_dataset(synthetic_path)
        root = sorted(dataset.accounts)[0]
        code, out, _ = run(capsys, ["compare", "--dataset", synthetic_path, "--root", root])
        assert code == 0
        assert out.splitlines()[0] == "Followers = 50, top-k users = 3, TTL = 3"
        assert out.splitlines()[1].split() == list(COMPARE_COLUMNS)

    def test_rootless_root_warns_and_ties(self, capsys, tmp_path):
        path = tmp_path / "lonely.jsonl"
        save_dataset(dataset_from_spec({"loner": {}, "other": {}}), path)
        code, out, err = run(capsys, [
            "compare", "--dataset", str(path), "--root", "loner", "--format", "json",
        ])
        assert code == 0
        assert "no resolvable followers" in err
        block = json.loads(out)["results"][0]
        assert block["winner"] == "tie"
        assert block["by_influence"]["ttt"] == 0.0
        assert block["by_followers"]["ttt"] == 0.0
        totals = [block["by_influence"]["ttt"], block["by_followers"]["ttt"], block["difference"]]
        assert [type(t) for t in totals] == [float, float, float]
        _, out, _ = run(capsys, ["compare", "--dataset", str(path), "--root", "loner", "--format", "csv"])
        assert out.split("\r\n")[1] == "50,3,3,loner,0.000,0.000,0.000,tie,0,0"
        _, out, _ = run(capsys, ["compare", "--dataset", str(path), "--root", "loner"])
        assert out.splitlines()[2].split() == ["loner", "0.000", "0.000", "0.000", "tie", "0", "0"]
        code, _, err = run(capsys, [
            "compare", "--dataset", str(path), "--root", "loner", "--nf", "20,40", "--k", "3,5",
        ])
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            "warning: root loner has no resolvable followers; both networks are empty",
        ]

    def test_path_counts_print_without_separators(self, capsys, tmp_path):
        # Root, then 4 layers of 6 accounts; every account follows every
        # account of the layer above and every edge factor is 1, so each
        # network has 6**4 paths and a total of 1296.0.
        spec = layered_spec(4, 6, tweets=10, span_days=2.0, retweet_fraction=1.0)
        path = tmp_path / "dense.jsonl"
        save_dataset(dataset_from_spec(spec), path)
        argv = ["compare", "--dataset", str(path), "--root", "root",
                "--nf", "6", "--k", "6", "--ttl", "4"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[2].split() == [
            "root", "1,296.000", "1,296.000", "0.000", "tie", "1296", "1296",
        ]
        _, out, _ = run(capsys, argv + ["--format", "csv"])
        assert out.split("\r\n")[1] == "6,6,4,root,1296.000,1296.000,0.000,tie,1296,1296"

    def test_four_budget_blocks(self, capsys, synthetic_path, schema_validator):
        dataset = load_dataset(synthetic_path)
        root = sorted(dataset.accounts)[0]
        code, out, _ = run(capsys, [
            "compare", "--dataset", synthetic_path, "--root", root,
            "--nf", "50,100,180,360", "--k", "3,5,7,7", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out)
        schema_validator.validate(doc)
        budgets = [(b["followers_fetched"], b["top_k"]) for b in doc["results"]]
        assert budgets == [(50, 3), (100, 5), (180, 7), (360, 7)]
        code, out, _ = run(capsys, [
            "compare", "--dataset", synthetic_path, "--root", root,
            "--nf", "50,100,180,360", "--k", "3,5,7,7",
        ])
        assert out.count("Followers = ") == 4

    def test_dump_networks_embeds_graphs(self, capsys, synthetic_path, schema_validator):
        dataset = load_dataset(synthetic_path)
        root = sorted(dataset.accounts)[0]
        code, out, _ = run(capsys, [
            "compare", "--dataset", synthetic_path, "--root", root,
            "--format", "json", "--dump-networks", "--nf", "10",
        ])
        assert code == 0
        doc = json.loads(out)
        schema_validator.validate(doc)
        networks = doc["results"][0]["networks"]
        assert {n["id"] for n in networks["by_influence"]["nodes"]} >= {root}
        assert networks["by_followers"]["edges"]

    def test_ties_select_the_smallest_ids(self, capsys, tmp_path):
        # The root lists its followers in descending id order. They are
        # stubs with equal follower counts, so they tie in both categories
        # and k = 2 cuts the tie group: the id order of followers_of decides.
        followers = ["f5", "f4", "f3", "f2", "f1"]
        path = write_lines(
            tmp_path,
            account_line("root", followers=5, follower_ids=followers),
            tweet_line("t1", "root"),
            tweet_line("t2", "root", days_ago=1.5),
            *(account_line(follower, followers=7) for follower in followers),
        )
        dataset = load_dataset(path)
        for category in RankingCategory:
            network = build_network(dataset, "root", n_f=5, k=2, ttl=1, category=category,
                                    as_of=dataset.captured_at)
            assert set(network.nodes) == {"root", "f1", "f2"}, category
        code, out, _ = run(capsys, ["compare", "--dataset", str(path), "--root", "root",
                                    "--k", "2", "--ttl", "1", "--format", "json", "--dump-networks"])
        assert code == 0
        networks = json.loads(out)["results"][0]["networks"]
        for category in RankingCategory:
            nodes = networks[category.value]["nodes"]
            assert [node["id"] for node in nodes[:-1]] == ["root", "f1", "f2"], category

    def test_one_call_scores_each_account_once(self, capsys, monkeypatch, tmp_path):
        import influence_tracker.network as network_module

        calls = Counter()
        original = network_module.influence_metric

        def counting(snapshot, as_of):
            calls[snapshot.account_id] += 1
            return original(snapshot, as_of)

        monkeypatch.setattr(network_module, "influence_metric", counting)
        path = tmp_path / "gen.jsonl"
        save_dataset(generate_synthetic(seed=3, accounts=300, max_followers=40), path)
        code, _, _ = run(capsys, ["compare", "--dataset", str(path), "--root", "acct-00000",
                                  "--nf", "20,10,5", "--k", "5,3,2", "--ttl", "4", "--format", "json"])
        assert code == 0
        assert len(calls) > 100
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("root", ["calm", "burst"])
    def test_winner_does_not_hang_on_the_roots_rate(self, capsys, root):
        # Totals 1e-5 against 1.43e-6 under the calm root; 1.157e-12 against
        # 1.653e-13, a gap below 1e-12, under the bursting one.
        code, out, _ = run(capsys, ["compare", "--dataset", RELATIVE_TIE, "--root", root,
                                    "--nf", "2", "--k", "1", "--ttl", "1", "--format", "csv"])
        assert code == 0
        assert out.split("\r\n")[1] == f"2,1,1,{root},0.000,0.000,0.000,by_influence,1,1"

    def test_mismatched_batch_lists_usage_error(self, capsys, synthetic_path):
        code, _, err = run(capsys, [
            "compare", "--dataset", synthetic_path, "--root", "acct-00000",
            "--nf", "10,20", "--k", "2,3,4",
        ])
        assert code == 1

    def test_nf_below_k_usage_error(self, capsys, synthetic_path):
        code, _, _ = run(capsys, [
            "compare", "--dataset", synthetic_path, "--root", "acct-00000",
            "--nf", "2", "--k", "5",
        ])
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--nf", "2", "--k", "3"], "need followers-fetched >= top-k >= 1, got n_f=2, k=3"),
        (["--ttl", "0"], "ttl must be >= 1, got 0"),
        (["--as-of", "yesterday"], "cannot parse timestamp 'yesterday' (expected RFC 3339)"),
        (["--as-of", ""], "cannot parse timestamp '' (expected RFC 3339)"),
    ])
    def test_bad_budget_or_instant_usage_error(self, capsys, synthetic_path, flags, message):
        code, _, err = run(capsys, [
            "compare", "--dataset", synthetic_path, "--root", "acct-00000", *flags,
        ])
        assert code == 1
        assert message in err


class TestJsonLayout:
    def test_compare_key_order(self, capsys, synthetic_path):
        code, out, _ = run(capsys, [
            "compare", "--dataset", synthetic_path, "--root", "acct-00000",
            "--nf", "10", "--format", "json", "--dump-networks",
        ])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["command", "dataset_id", "root", "as_of", "results"]
        block = doc["results"][0]
        assert list(block) == [
            "followers_fetched", "top_k", "ttl", "by_influence", "by_followers",
            "difference", "winner", "networks",
        ]
        assert list(block["by_influence"]) == list(block["by_followers"]) == ["ttt", "path_count"]
        assert list(block["networks"]) == ["by_influence", "by_followers"]

    def test_score_key_order(self, capsys):
        code, out, _ = run(capsys, ["score", "--dataset", REFERENCE, "--format", "json", "SkaiGr"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["command", "dataset_id", "as_of", "rows"]
        assert list(doc["rows"][0]) == [
            "handle", "account_id", "captured_at", "influence", "tcr", "followers", "following",
            "retweet_h_last100", "favorite_h_last100", "retweet_h_daily", "favorite_h_daily",
        ]


# JSON-ready values: strings that could fool a writer that splices
# encoded text, every float the encoder spells specially, ints past
# 64 bits, keys that json.dumps turns into strings, and lists of flat
# records beside lists of nested ones.
TRICKY_TEXT = st.text(alphabet=st.sampled_from('"\\\n},{ aé\u2028\U0001f600'), max_size=6)
SPECIAL_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 0.1])
SCALARS = (
    st.none() | st.booleans() | TRICKY_TEXT | SPECIAL_FLOATS
    | st.floats() | st.integers(min_value=-(2**70), max_value=2**70) | st.just(2**63)
)
KEYS = (
    TRICKY_TEXT | st.integers(min_value=-(2**70), max_value=2**70)
    | SPECIAL_FLOATS | st.floats() | st.booleans() | st.none()
)
FLAT_RECORD = st.dictionaries(KEYS, SCALARS, min_size=1, max_size=4)
JSON_READY = st.recursive(
    SCALARS | st.lists(FLAT_RECORD, max_size=4),
    lambda inner: st.lists(inner | FLAT_RECORD, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20,
)


def seeded_networks():
    """Networks built from `gen` snapshots: both categories, ttl 1-5."""
    dataset = generate_synthetic(seed=11, accounts=80, max_followers=20)
    root = max(sorted(dataset.accounts), key=lambda a: len(dataset.accounts[a].follower_ids))
    return [
        build_network(dataset, root, 20, 3, ttl, category, dataset.captured_at)
        for category in RankingCategory for ttl in range(1, 6)
    ]


def hand_built_networks():
    """Networks no build makes: odd rates and ids, a node named like the
    sink, stray edges out of the last layer, and a root with no edges."""
    odd_id = 'q"uo\\te\n\x01é\U0001f600'
    odd = LayeredNetwork("r", RankingCategory.BY_INFLUENCE, 2, nodes={
        "r": NetworkNode("r", 0, 3, True, None, 7),
        odd_id: NetworkNode(odd_id, 1, float("nan"), float("inf"), float("-inf"), -0.0),
        "ü": NetworkNode("ü", 2, -0.0, False, 2**70, True),
    }, edges={("r", odd_id), (odd_id, "ü"), ("r", "ü")})
    sink_named = LayeredNetwork("__sink__", RankingCategory.BY_FOLLOWERS, 1, nodes={
        "__sink__": NetworkNode("__sink__", 0, 1.0, 0.5, 0.25, 3),
        "__sink___": NetworkNode("__sink___", 1, 0.1, 0.2, 0.3, 4),
        "a": NetworkNode("a", 1, 0.4, 0.5, 0.6, 5),
    }, edges={("__sink__", "__sink___"), ("__sink__", "a")})
    stray = LayeredNetwork("r", RankingCategory.BY_FOLLOWERS, 1, nodes={
        "r": NetworkNode("r", 0, 1.0, 0.5, 0.25, 3),
        "b": NetworkNode("b", 1, 0.1, 0.2, 0.3, 4),
        "a": NetworkNode("a", 1, 0.4, 0.5, 0.6, 5),
    }, edges={("r", "b"), ("r", "a"), ("b", "a"), ("a", "r"), ("b", "__sink__"), ("b", "z")})
    root_only = LayeredNetwork("r", RankingCategory.BY_INFLUENCE, 3, nodes={
        "r": NetworkNode("r", 0, 1.0, 0.5, 0.25, 3),
    })
    return [odd, sink_named, stray, root_only]


class TestJsonWriter:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(JSON_READY)
    def test_writer_matches_json_dumps_indent_2(self, payload):
        assert _dumps(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("key", [(1, 2), b"k", frozenset()], ids=["tuple", "bytes", "frozenset"])
    def test_writer_rejects_the_keys_json_dumps_rejects(self, key):
        with pytest.raises(TypeError):
            json.dumps({key: 0}, indent=2)
        with pytest.raises(TypeError):
            _dumps({key: 0})

    @pytest.mark.parametrize("networks", [seeded_networks, hand_built_networks], ids=["seeded", "hand-built"])
    def test_network_is_written_as_its_dict(self, networks):
        for network in networks():
            expected = json.dumps(network_dict(network), indent=2)
            for pad in ("\n", "\n  ", "\n        "):
                assert _dumps(network, pad) == expected.replace("\n", pad)

    @pytest.mark.parametrize("handles", [["SkaiGr", "YourAnonNews"], []], ids=["handles", "none"])
    def test_score_json_is_indent_2(self, capsys, handles):
        code, out, _ = run(capsys, ["score", "--dataset", REFERENCE, "--format", "json", *handles])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_compare_dump_is_indent_2(self, capsys, synthetic_path):
        code, out, _ = run(capsys, [
            "compare", "--dataset", synthetic_path, "--root", "acct-00000",
            "--nf", "10,20", "--k", "3,4", "--format", "json", "--dump-networks",
        ])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_dump_of_rootless_root_is_indent_2(self, capsys, tmp_path):
        path = tmp_path / "lonely.jsonl"
        save_dataset(dataset_from_spec({"loner": {}, "other": {}}), path)
        code, out, _ = run(capsys, [
            "compare", "--dataset", str(path), "--root", "loner", "--format", "json", "--dump-networks",
        ])
        assert code == 0
        network = json.loads(out)["results"][0]["networks"]["by_influence"]
        assert [node["layer"] for node in network["nodes"]] == [0, None]
        assert network["edges"] == []
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestGen:
    def test_byte_identical_for_same_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen", "--seed", "1", "--accounts", "12", "--max-followers", "4", "--out", str(a)]) == 0
        assert main(["gen", "--seed", "1", "--accounts", "12", "--max-followers", "4", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_minimal_and_round_trip(self, capsys, tmp_path):
        out = tmp_path / "tiny.jsonl"
        code, stdout, _ = run(capsys, [
            "gen", "--seed", "3", "--accounts", "2", "--max-followers", "1", "--out", str(out)
        ])
        assert code == 0
        assert "2 accounts" in stdout
        dataset = load_dataset(out)
        assert len(dataset.accounts) == 2

    def test_round_trip_of_larger_dataset(self, capsys, tmp_path):
        out = tmp_path / "big.jsonl"
        code, _, _ = run(capsys, [
            "gen", "--seed", "7", "--accounts", "100", "--max-followers", "15", "--out", str(out)
        ])
        assert code == 0
        dataset = load_dataset(out)
        assert len(dataset.accounts) == 100

    def test_too_few_accounts_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "gen", "--seed", "1", "--accounts", "1", "--max-followers", "3",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert code == 1
        assert "accounts" in err


class TestExitCodes:
    def test_corrupt_dataset_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "mystery"}\n')
        code, _, err = run(capsys, ["score", "--dataset", str(bad), "x"])
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("kind, field, raw, line, reason", OUT_OF_RANGE)
    def test_value_out_of_range_exits_2_naming_its_line(self, capsys, tmp_path, kind, field, raw, line, reason):
        path = tmp_path / "probe.jsonl"
        path.write_text("\n".join(header_account_tweet(kind, field, raw)) + "\n", encoding="utf-8")
        for command in (["score", "--dataset", str(path), "a"], ["compare", "--dataset", str(path), "--root", "a"]):
            code, out, err = run(capsys, command)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: line {line}: ") and reason in err

    def test_invalid_utf8_exits_2_naming_its_line(self, capsys, tmp_path):
        path = tmp_path / "probe.jsonl"
        path.write_bytes(header_account_tweet()[1].encode() + b"\n{\"kind\": \"\xff\"}\n")
        code, out, err = run(capsys, ["score", "--dataset", str(path), "a"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 2: invalid JSON: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("handle", ["ev\nil", "ev\til", "ev\u2028il", "ev\x00il"])
    def test_unprintable_handle_exits_2_naming_its_line(self, capsys, tmp_path, handle):
        # Such a handle would split a row of the text tables and of the warnings.
        path = tmp_path / "probe.jsonl"
        path.write_text("\n".join(header_account_tweet("account", "handle", json.dumps(handle))) + "\n",
                        encoding="utf-8")
        for command in (["score", "--dataset", str(path), "a"], ["compare", "--dataset", str(path), "--root", "a"]):
            code, out, err = run(capsys, command)
            assert code == 2
            assert out == ""
            assert err == f"error: line 2: bad account record: handle {handle!r} is not printable\n"

    def test_handle_case_clash_exits_2_naming_its_line(self, capsys, tmp_path):
        path = tmp_path / "clash.jsonl"
        save_dataset(dataset_from_spec({"a1": {"handle": "Alice", "tweets": None}, "b1": {"handle": "ALICE"}}), path)
        # Querying by id never touches the handles, yet the file is refused.
        for command in (["score", "--dataset", str(path), "a1"], ["compare", "--dataset", str(path), "--root", "a1"]):
            code, out, err = run(capsys, command)
            assert code == 2
            assert out == ""
            assert err == "error: line 2: handle 'ALICE' clashes with the handle of account 'a1'\n"

    @pytest.mark.parametrize("retweet_fraction", [1.0, 0.0], ids=["infinite-total", "zero-total"])
    def test_network_too_large_to_total_exits_2(self, capsys, tmp_path, retweet_fraction):
        # 1,100 layers of 2, every edge factor equal: 2**1100 paths, whose
        # total overflows to inf with retweets and is 0.0 without.
        path = tmp_path / "ladder.jsonl"
        spec = layered_spec(1100, 2, tweets=10, span_days=2.0, retweet_fraction=retweet_fraction)
        save_dataset(dataset_from_spec(spec), path)
        code, out, err = run(capsys, [
            "compare", "--dataset", str(path), "--root", "root",
            "--nf", "2", "--k", "2", "--ttl", "1100", "--format", "json",
        ])
        assert code == 2
        assert out == ""
        assert err == ("error: the by_influence network for n_f=2, k=2, ttl=1100 "
                       "has too many paths to total\n")

    def test_score_tweet_newer_than_as_of_exits_2(self, capsys):
        code, out, err = run(capsys, ["score", "--dataset", REFERENCE,
                                      "--as-of", "2000-01-01T00:00:00Z", "SkaiGr"])
        assert code == 2
        assert out == ""
        assert err == ("error: tweet acct-sg-t000 created 2023-05-01T00:00:00+00:00 "
                       "is newer than as_of 2000-01-01T00:00:00+00:00\n")

    def test_compare_tweet_newer_than_as_of_exits_2(self, capsys, tmp_path):
        path = str(tmp_path / "gen.jsonl")
        assert main(["gen", "--seed", "1", "--accounts", "30", "--max-followers", "10", "--out", path]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, ["compare", "--dataset", path, "--root", "acct-00000",
                                      "--as-of", "2020-05-01T00:00:00Z"])
        assert code == 2
        assert out == ""
        assert err == ("error: tweet tw-00000-000 created 2020-06-01T00:00:00+00:00 "
                       "is newer than as_of 2020-05-01T00:00:00+00:00\n")

    def test_missing_subcommand_exits_1(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 1

    def test_missing_required_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, ["compare", "--root", "x"])
        assert code == 1

    def test_unexpected_failure_exits_3(self, capsys, monkeypatch):
        import influence_tracker.cli as cli_module

        def explode(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_module, "load_dataset", explode)
        code, _, err = run(capsys, ["score", "--dataset", REFERENCE, "x"])
        assert code == 3
        assert "internal error" in err

    def test_missing_dataset_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, ["score", "--dataset", str(tmp_path / "absent.jsonl"), "x"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "absent.jsonl" in err

    def test_gen_into_missing_directory_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "absent" / "demo.jsonl"
        code, out, err = run(capsys, ["gen", "--seed", "1", "--accounts", "3", "--max-followers", "2",
                                      "--out", str(out_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "demo.jsonl" in err

    @pytest.fixture
    def accented_path(self, tmp_path):
        path = tmp_path / "accented.jsonl"
        save_dataset(dataset_from_spec({
            "jose": {"handle": "Jos\u00e9", "follower_ids": ("fan",), "retweet_fraction": 0.5},
            "fan": {"retweet_fraction": 0.5},
        }), path)
        return str(path)

    @pytest.mark.parametrize("command", [
        ["score", "jose"], ["score", "--format", "csv", "jose"], ["compare", "--root", "jose"],
    ], ids=["score-text", "score-csv", "compare-text"])
    def test_output_stdout_cannot_encode_exits_2(self, accented_path, command):
        proc = run_process([command[0], "--dataset", accented_path, *command[1:]], PYTHONIOENCODING="ascii")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert re.fullmatch(rb"error: 'ascii' codec can't encode character '\\xe9' "
                            rb"in position \d+: ordinal not in range\(128\)\n", proc.stderr)

    def test_json_output_is_ascii_so_any_stdout_holds_it(self, accented_path):
        argv = ["score", "--dataset", accented_path, "--format", "json", "jose"]
        ascii_run = run_process(argv, PYTHONIOENCODING="ascii")
        utf8_run = run_process(argv, PYTHONIOENCODING="utf-8")
        assert ascii_run.returncode == utf8_run.returncode == 0
        assert ascii_run.stdout == utf8_run.stdout
        assert b'"handle": "Jos\\u00e9"' in ascii_run.stdout

    def test_keyboard_interrupt_propagates(self, capsys, monkeypatch):
        import influence_tracker.cli as cli_module

        def interrupt(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "load_dataset", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["score", "--dataset", REFERENCE, "x"])
        assert capsys.readouterr().err == ""


class TestOneParserPerProcess:
    def test_optimized_interpreter_prints_the_same_bytes(self):
        # Under -OO every docstring is None; the parser must not need one.
        argv = ["score", "--dataset", REFERENCE, "SkaiGr", "YourAnonNews"]
        plain, optimized = run_process(argv), run_process(argv, "-OO")
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == plain.stdout != b""

    @pytest.mark.parametrize("argv, code", [
        (["score", "--dataset", REFERENCE, "SkaiGr"], 0),
        (["compare", "--dataset", "{data}", "--root", "acct-00000", "--format", "json", "--dump-networks"], 0),
        (["score", "--dataset", "{absent}", "x"], 2),
        (["compare", "--dataset", "{data}", "--root", "acct-00000", "--nf", "2", "--k", "3"], 1),
        (["compare", "--dataset", "{data}"], 1),
        (["score", "x"], 1),
        (["score", "--dataset", "{data}", "--bogus", "x"], 1),
        ([], 1),
    ], ids=["score", "compare-dump", "missing-file", "bad-budget", "no-root", "no-dataset", "unknown-flag",
            "no-command"])
    def test_a_call_leaves_no_cyclic_garbage(self, capsys, synthetic_path, tmp_path, argv, code):
        argv = [arg.format(data=synthetic_path, absent=tmp_path / "absent.jsonl") for arg in argv]
        assert main(argv) == code  # warm-up: lazy imports and first-call caches
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == code
            freed = gc.collect()
        finally:
            if enabled:
                gc.enable()
        capsys.readouterr()
        assert freed == 0

    def test_usage_follows_the_terminal_width(self, capsys, monkeypatch):
        widest = {}
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main(["score"]) == 1
            widest[columns] = max(map(len, capsys.readouterr().err.splitlines()))
        assert widest["40"] < widest["200"]


class TestCollectorPause:
    """A command runs with the cyclic collector paused, and ``main`` leaves
    the collector as it found it, whatever the exit code."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv, code", [
        (["score", "--dataset", REFERENCE, "SkaiGr"], 0),
        (["compare", "--dataset", "{data}", "--root", "acct-00000", "--nf", "2", "--k", "3"], 1),
        (["score", "--dataset", "{absent}", "x"], 2),
        (["score", "--dataset", REFERENCE, "SkaiGr"], 3),
    ], ids=["ok", "bad-budget", "missing-file", "internal-error"])
    def test_collector_state_is_restored(self, capsys, monkeypatch, synthetic_path, tmp_path, enabled, argv, code):
        import influence_tracker.cli as cli_module

        seen = []

        def rows(*args):
            seen.append(gc.isenabled())
            if code == 3:
                raise RuntimeError("boom")
            return score_rows(*args)

        monkeypatch.setattr(cli_module, "score_rows", rows)
        argv = [arg.format(data=synthetic_path, absent=tmp_path / "absent.jsonl") for arg in argv]
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()
        capsys.readouterr()
        assert seen == ([False] if code in (0, 3) else [])

    def test_a_compare_call_runs_no_collection(self, capsys, tmp_path):
        import influence_tracker.cli as cli_module

        path = tmp_path / "gen.jsonl"
        save_dataset(generate_synthetic(seed=3, accounts=300, max_followers=40), path)
        argv = ["compare", "--dataset", str(path), "--root", "acct-00000", "--nf", "20,10", "--k", "5,3",
                "--ttl", "4", "--format", "json", "--dump-networks"]
        generations = []

        def count(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(count)
        try:
            # The same command run outside main, so unpaused but for the load:
            # the input is big enough for the collector to run.
            args = cli_module._PARSER.parse_args(argv)
            assert args.func(args) == 0
            assert generations
            generations.clear()
            assert main(argv) == 0
        finally:
            gc.callbacks.remove(count)
            gc.enable() if was_enabled else gc.disable()
        capsys.readouterr()
        assert generations == []


class TestQuickStart:
    def test_readme_quick_start_reproduces(self, capsys, tmp_path, monkeypatch):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Quick start", 1)[1].split("```console\n", 1)[1].split("```", 1)[0]
        commands = block.split("$ influence-tracker ")[1:]
        assert len(commands) == 3
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("INFLUENCE_TRACKER_FORMAT", raising=False)
        for command in commands:
            argv, expected = command.split("\n", 1)
            code, out, _ = run(capsys, shlex.split(argv))
            assert code == 0
            assert out == expected.rstrip("\n") + "\n", argv

    def test_readme_library_use_runs(self, capsys, tmp_path, monkeypatch):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        gen = readme.split("## Quick start", 1)[1].split("$ influence-tracker ", 1)[1].split("\n", 1)[0]
        code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        assert run(capsys, shlex.split(gen))[0] == 0
        exec(code, {})
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[1:3]] == ["by_influence", "by_followers"]


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_score_stable_across_runs(self, capsys, fmt):
        argv = ["score", "--dataset", REFERENCE, "--format", fmt, "SkaiGr", "YourAnonNews"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_compare_stable_across_runs(self, capsys, synthetic_path):
        dataset = load_dataset(synthetic_path)
        root = sorted(dataset.accounts)[0]
        argv = ["compare", "--dataset", synthetic_path, "--root", root,
                "--nf", "10,20", "--k", "2,4", "--format", "json", "--dump-networks"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_gen_bytes_are_pinned(self, capsys, tmp_path):
        # The benchmark builds its inputs with gen, so a drift here would
        # change what two versions of the program are compared on.
        path = tmp_path / "demo.jsonl"
        argv = ["gen", "--seed", "42", "--accounts", "200", "--max-followers", "60", "--out", str(path)]
        assert run(capsys, argv)[0] == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "968e96546cd269432116bb4e96ad203b775bfc7872f7474ce06cfe82f3abbf5e"

    @pytest.mark.parametrize("seed,accounts,max_followers,digest", [
        ("3", "2", "1", "dba3fc746e24fb401605566396a49972ffd37e32576780271d095dacfb9c9128"),
        ("5", "40", "100", "7d12aabeee17d383e9efb20ab550835d656dd3de7418e81e9f109acb59b037cd"),
    ], ids=["two-accounts", "all-others-drawable"])
    def test_gen_bytes_are_pinned_at_sampling_edges(self, capsys, tmp_path, seed, accounts, max_followers, digest):
        # Followers are drawn as positions among the other accounts; these
        # pins hold the smallest population and one where every other
        # account can be drawn. The digests were computed when followers
        # were still sampled from a copied list of the other ids.
        path = tmp_path / "edge.jsonl"
        argv = ["gen", "--seed", seed, "--accounts", accounts, "--max-followers", max_followers, "--out", str(path)]
        assert run(capsys, argv)[0] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_gen_bytes_of_the_sweep_snapshot_are_pinned(self, capsys, tmp_path):
        # The benchmark's compare-sweep snapshot: on every benchmark seed,
        # two versions of the program are compared on this one file.
        path = tmp_path / "sweep.jsonl"
        argv = ["gen", "--seed", "2014", "--accounts", "1500", "--max-followers", "200", "--out", str(path)]
        assert run(capsys, argv)[0] == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "aeafcef74c5191e7c5596c68404152abdfe6f13e5ccffdf9c3ba1c9f7e658100"

    def test_compare_blocks_independent_of_config_order(self, capsys, tmp_path):
        # Budgets above and below each parent's follower count, in both
        # orders: per-dataset lookups must not carry one budget into the next.
        path = tmp_path / "wide.jsonl"
        dataset = generate_synthetic(seed=5, accounts=200, max_followers=80)
        save_dataset(dataset, path)
        root = max(sorted(dataset.accounts), key=lambda a: len(dataset.accounts[a].follower_ids))
        base = ["compare", "--dataset", str(path), "--root", root, "--ttl", "2",
                "--format", "json", "--dump-networks"]
        _, forward, _ = run(capsys, base + ["--nf", "200,30", "--k", "8,3"])
        _, backward, _ = run(capsys, base + ["--nf", "30,200", "--k", "3,8"])
        forward_blocks = json.loads(forward)["results"]
        backward_blocks = json.loads(backward)["results"]
        assert forward_blocks == backward_blocks[::-1]
        assert forward_blocks[0] != forward_blocks[1]
