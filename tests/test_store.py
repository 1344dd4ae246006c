import json
from datetime import timedelta
from pathlib import Path

import pytest

from influence_tracker import (
    DanglingReference,
    DuplicateAccount,
    ParseError,
    UnknownAccount,
    followers_of,
    generate_synthetic,
    influence_metric,
    load_dataset,
    save_dataset,
)

from conftest import AS_OF, dataset_from_spec

DATA_DIR = Path(__file__).parent / "data"


def account_line(account_id, followers=10, following=5, follower_ids=(), handle=None):
    return json.dumps({
        "kind": "account", "id": account_id, "handle": handle or account_id,
        "followers_count": followers, "following_count": following,
        "follower_ids": list(follower_ids), "captured_at": AS_OF.isoformat(),
    })


def tweet_line(tweet_id, author_id, days_ago=0.5, retweets=1, favorites=2, is_retweet=False):
    return json.dumps({
        "kind": "tweet", "id": tweet_id, "author_id": author_id,
        "created_at": (AS_OF - timedelta(days=days_ago)).isoformat(),
        "retweet_count": retweets, "favorite_count": favorites, "is_retweet": is_retweet,
    })


def write_lines(tmp_path, *lines, name="dataset.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadDataset:
    def test_two_account_file(self, tmp_path):
        path = write_lines(
            tmp_path,
            "# a comment",
            account_line("a"),
            tweet_line("t1", "a"),
            account_line("b"),
        )
        dataset = load_dataset(path)
        assert set(dataset.accounts) == {"a", "b"}
        assert dataset.windows["a"].window_size == 1
        assert "b" not in dataset.windows
        assert dataset.dataset_id == "dataset"
        assert dataset.captured_at == AS_OF

    def test_duplicate_account_rejected(self, tmp_path):
        path = write_lines(tmp_path, account_line("a"), account_line("a"))
        with pytest.raises(DuplicateAccount):
            load_dataset(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_lines(tmp_path, account_line("a"), '{"kind": "like", "id": "x"}')
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path, account_line("a"), "{not json")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_tweet_before_account_is_dangling(self, tmp_path):
        path = write_lines(tmp_path, tweet_line("t1", "a"), account_line("a"))
        with pytest.raises(DanglingReference):
            load_dataset(path)

    def test_duplicate_tweet_id_rejected(self, tmp_path):
        path = write_lines(
            tmp_path, account_line("a"), tweet_line("t1", "a"), tweet_line("t1", "a")
        )
        with pytest.raises(ParseError, match="duplicate tweet"):
            load_dataset(path)

    def test_tweet_newer_than_capture_rejected(self, tmp_path):
        path = write_lines(
            tmp_path, account_line("a"), tweet_line("t1", "a", days_ago=-1.0)
        )
        with pytest.raises(ParseError, match="capture time"):
            load_dataset(path)

    def test_missing_field_rejected(self, tmp_path):
        bad = json.dumps({"kind": "account", "id": "a"})
        path = write_lines(tmp_path, bad)
        with pytest.raises(ParseError, match="missing field"):
            load_dataset(path)

    def test_self_follower_rejected(self, tmp_path):
        path = write_lines(tmp_path, account_line("a", follower_ids=("a",)))
        with pytest.raises(ParseError, match="itself"):
            load_dataset(path)

    def test_follower_list_longer_than_count_rejected(self, tmp_path):
        path = write_lines(
            tmp_path, account_line("a", followers=1, follower_ids=("b", "c"))
        )
        with pytest.raises(ParseError, match="followers_count"):
            load_dataset(path)

    def test_negative_counts_rejected(self, tmp_path):
        path = write_lines(
            tmp_path, account_line("a"), tweet_line("t1", "a", retweets=-3)
        )
        with pytest.raises(ParseError, match="retweet_count"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_lines(tmp_path, "# nothing here")
        with pytest.raises(ParseError, match="no account records"):
            load_dataset(path)

    def test_window_keeps_newest_hundred(self, tmp_path):
        tweets = [tweet_line(f"t{i:03d}", "a", days_ago=i / 10) for i in range(120)]
        path = write_lines(tmp_path, account_line("a"), *tweets)
        dataset = load_dataset(path)
        window = dataset.windows["a"]
        assert window.window_size == 100
        assert window.newest.tweet_id == "t000"
        assert window.oldest.tweet_id == "t099"

    def test_zulu_timestamps_accepted(self, tmp_path):
        line = json.dumps({
            "kind": "account", "id": "a", "handle": "a", "followers_count": 1,
            "following_count": 1, "follower_ids": [],
            "captured_at": "2023-05-01T00:00:00Z",
        })
        dataset = load_dataset(write_lines(tmp_path, line))
        assert dataset.accounts["a"].captured_at == AS_OF

    @pytest.mark.parametrize("raw", ["yesterday", 1682899200, None])
    @pytest.mark.parametrize("kind, field, line", [
        ("account", "captured_at", 2), ("tweet", "created_at", 3),
    ])
    def test_bad_timestamp_reports_line_number(self, tmp_path, raw, kind, field, line):
        records = {"account": json.loads(account_line("a")), "tweet": json.loads(tweet_line("t1", "a"))}
        records[kind][field] = raw
        path = write_lines(tmp_path, "# header", *(json.dumps(r) for r in records.values()))
        with pytest.raises(ParseError, match=f"line {line}"):
            load_dataset(path)

    @pytest.mark.parametrize("kind, field, value, line", [
        ("account", "handle", 7, 2),
        ("account", "id", ["a"], 2),
        ("tweet", "id", ["t1"], 3),
        ("tweet", "author_id", ["a"], 3),
    ])
    def test_non_string_key_rejected(self, tmp_path, kind, field, value, line):
        records = {"account": json.loads(account_line("a")), "tweet": json.loads(tweet_line("t1", "a"))}
        records[kind][field] = value
        path = write_lines(tmp_path, "# header", *(json.dumps(r) for r in records.values()))
        with pytest.raises(ParseError, match=f"line {line}: field\\(s\\) must be strings: {field}"):
            load_dataset(path)

    def test_reference_fixture_scores(self):
        dataset = load_dataset(DATA_DIR / "reference_accounts.jsonl")
        account = dataset.resolve("@skaigr")
        score = influence_metric(
            account, dataset.windows[account.account_id], dataset.captured_at
        )
        assert score.value == pytest.approx(35356300.107, rel=1e-3)


class TestResolve:
    def test_by_id_handle_and_case(self, tmp_path):
        path = write_lines(tmp_path, account_line("a1", handle="Alice"))
        dataset = load_dataset(path)
        for query in ("a1", "Alice", "alice", "@ALICE"):
            assert dataset.resolve(query).account_id == "a1"

    def test_unknown_raises(self, tmp_path):
        dataset = load_dataset(write_lines(tmp_path, account_line("a1")))
        with pytest.raises(UnknownAccount):
            dataset.resolve("nobody")

    def test_case_clash_fails_only_when_queried(self, tmp_path):
        path = write_lines(
            tmp_path,
            account_line("a1", handle="Alice"),
            account_line("a2", handle="ALICE"),
            account_line("b1", handle="Bob"),
        )
        dataset = load_dataset(path)
        assert dataset.resolve("@bob").account_id == "b1"
        assert dataset.resolve("a2").account_id == "a2"
        with pytest.raises(UnknownAccount, match="handle '@alice' is ambiguous in dataset 'dataset'"):
            dataset.resolve("@alice")
        with pytest.raises(UnknownAccount, match="no account 'carol' in dataset 'dataset'"):
            dataset.resolve("carol")


class TestRoundTrip:
    def test_save_load_preserves_records(self, tmp_path):
        original = generate_synthetic(seed=3, accounts=20, max_followers=8)
        path = tmp_path / "ds.jsonl"
        save_dataset(original, path)
        reloaded = load_dataset(path)
        assert reloaded.accounts == original.accounts
        assert reloaded.windows == original.windows
        assert reloaded.captured_at == original.captured_at

    def test_canonical_save_is_stable(self, tmp_path):
        dataset = generate_synthetic(seed=5, accounts=10, max_followers=4)
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_dataset(dataset, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFollowersOf:
    def test_under_limit_returns_all(self):
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("f1", "f2", "f3")},
            "f1": {}, "f2": {}, "f3": {},
        })
        result = followers_of(dataset, "root", 50)
        assert [s.account_id for s in result] == ["f1", "f2", "f3"]

    def test_truncates_to_smallest_ids(self):
        ids = [f"f{i:03d}" for i in range(100)]
        spec = {"root": {"follower_ids": tuple(ids), "followers_count": 100}}
        spec.update({fid: {} for fid in ids})
        dataset = dataset_from_spec(spec)
        result = [s.account_id for s in followers_of(dataset, "root", 50)]
        assert result == sorted(ids)[:50]

    def test_unknown_account(self):
        dataset = dataset_from_spec({"a": {}})
        with pytest.raises(UnknownAccount):
            followers_of(dataset, "missing", 10)

    def test_unresolvable_follower_ids_skipped(self):
        dataset = dataset_from_spec({
            "root": {"follower_ids": ("f1", "ghost"), "followers_count": 2},
            "f1": {},
        })
        result = followers_of(dataset, "root", 10)
        assert [s.account_id for s in result] == ["f1"]

    def test_limits_in_any_order_match_fresh_datasets(self):
        def build():
            return generate_synthetic(seed=11, accounts=120, max_followers=60)

        shared = build()
        root = max(sorted(shared.accounts), key=lambda a: len(shared.accounts[a].follower_ids))
        assert len(followers_of(build(), root, 50)) > 5
        for limit in (5, 50, 5):
            got = [s.account_id for s in followers_of(shared, root, limit)]
            fresh = [s.account_id for s in followers_of(build(), root, limit)]
            assert got == fresh

    def test_deterministic_across_calls(self):
        dataset = generate_synthetic(seed=11, accounts=30, max_followers=10)
        root = max(dataset.accounts, key=lambda a: len(dataset.accounts[a].follower_ids))
        first = [s.account_id for s in followers_of(dataset, root, 5)]
        second = [s.account_id for s in followers_of(dataset, root, 5)]
        assert first == second


class TestGenerateSynthetic:
    def test_same_seed_same_dataset(self, tmp_path):
        a = generate_synthetic(seed=1, accounts=10, max_followers=5)
        b = generate_synthetic(seed=1, accounts=10, max_followers=5)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(a, pa)
        save_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_minimal_dataset(self):
        dataset = generate_synthetic(seed=2, accounts=2, max_followers=1)
        assert len(dataset.accounts) == 2

    def test_caps_and_self_edges(self):
        dataset = generate_synthetic(seed=7, accounts=50, max_followers=20)
        for account in dataset.accounts.values():
            assert len(account.follower_ids) <= 20
            assert account.account_id not in account.follower_ids
            assert len(set(account.follower_ids)) == len(account.follower_ids)
            assert len(account.follower_ids) <= account.followers_count

    def test_windows_are_valid(self):
        dataset = generate_synthetic(seed=9, accounts=25, max_followers=10)
        assert dataset.windows, "generator should produce active accounts"
        for window in dataset.windows.values():
            assert 1 <= window.window_size <= 100
            assert window.newest.created_at <= dataset.captured_at

    def test_too_few_accounts_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=1, accounts=1, max_followers=5)
