import contextlib
import dataclasses
import gc
import io
import json
import random
import re
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_tracker import (
    AccountSnapshot,
    ParseError,
    SnapshotDataset,
    TweetWindow,
    UnknownAccount,
    followers_of,
    generate_synthetic,
    influence_metric,
    load_dataset,
    save_dataset,
)
from influence_tracker import store
from influence_tracker.cli import main

from conftest import AS_OF, dataset_from_spec, make_account

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


def with_raw(line, field, raw):
    """The JSON line with ``field`` holding the JSON text ``raw`` verbatim."""
    return json.dumps({**json.loads(line), field: None}).replace(f'"{field}": null', f'"{field}": {raw}')


def header_account_tweet(kind=None, field=None, raw=None):
    """Lines "# header", account "a" (line 2) and its tweet (line 3), with
    one field of the ``kind`` line set to the JSON text ``raw``, or with the
    whole ``kind`` line replaced by ``raw`` when ``field`` is None."""
    lines = {"account": account_line("a", followers=1000), "tweet": tweet_line("t1", "a")}
    if kind is not None:
        lines[kind] = raw if field is None else with_raw(lines[kind], field, raw)
    return ["# header", lines["account"], lines["tweet"]]


# Values of the wrong exact JSON type: each used to load, and then
# scored wrongly or was silently coerced.
MISTYPED = [
    pytest.param("account", "followers_count", "1000.0", 2, "must be integers: followers_count", id="float"),
    pytest.param("account", "followers_count", "true", 2, "must be integers: followers_count", id="bool"),
    pytest.param("account", "followers_count", "NaN", 2, "must be integers: followers_count", id="nan"),
    pytest.param("account", "following_count", "1e400", 2, "must be integers: following_count", id="inf"),
    pytest.param("tweet", "is_retweet", '"false"', 3, "must be booleans: is_retweet", id="str-flag"),
    pytest.param("tweet", "is_retweet", "1", 3, "must be booleans: is_retweet", id="int-flag"),
    pytest.param("account", "follower_ids", '"xyz"', 2, "must be lists of strings: follower_ids", id="str-ids"),
    pytest.param("account", "follower_ids", '{"b": 1}', 2, "must be lists of strings: follower_ids", id="dict-ids"),
    pytest.param("account", "follower_ids", "[1]", 2, "must be lists of strings: follower_ids", id="int-ids"),
    pytest.param("tweet", "retweet_count", "2.5", 3, "must be integers: retweet_count", id="float-retweets"),
    pytest.param("tweet", "favorite_count", "false", 3, "must be integers: favorite_count", id="bool-favorites"),
    pytest.param("account", "follower_ids", '["b", 1]', 2, "must be lists of strings: follower_ids", id="mixed-ids"),
    pytest.param("account", "follower_ids", "[null]", 2, "must be lists of strings: follower_ids", id="null-ids"),
    pytest.param("account", "follower_ids", "[true]", 2, "must be lists of strings: follower_ids", id="bool-ids"),
    pytest.param("account", "follower_ids", "[1.5]", 2, "must be lists of strings: follower_ids", id="float-ids"),
    pytest.param("account", "follower_ids", '[["b"]]', 2, "must be lists of strings: follower_ids",
                 id="nested-list-ids"),
    pytest.param("account", "follower_ids", '[{"b": 1}]', 2, "must be lists of strings: follower_ids",
                 id="dict-in-ids"),
]

# Values out of range, each refused at its line. Most used to end in an
# internal error, at decode or after load.
OUT_OF_RANGE = [
    pytest.param("account", "followers_count", "1" * 5001, 2, "invalid JSON: Exceeds the limit", id="5001-digits"),
    pytest.param("account", "follower_ids", "[" * 100_000 + "]" * 100_000, 2, "invalid JSON: maximum recursion",
                 id="deep-array"),
    pytest.param("account", "captured_at", '"0001-01-01T00:00:00+01:00"', 2, "out of range in UTC",
                 id="underflow-capture"),
    pytest.param("tweet", "created_at", '"0001-01-01T00:00:00+01:00"', 3, "out of range in UTC",
                 id="underflow-tweet"),
    pytest.param("account", "followers_count", str(10**400), 2, "followers_count must be in [0, 2**63)",
                 id="huge-int"),
    pytest.param("account", "handle", '"\\ud800x"', 2, "is not valid UTF-8", id="lone-surrogate"),
    pytest.param("tweet", "retweet_count", str(2**63), 3, "retweet_count must be in [0, 2**63)",
                 id="retweets-at-bound"),
    pytest.param("tweet", "retweet_count", "-1", 3, "retweet_count must be in [0, 2**63)", id="negative-retweets"),
    pytest.param("tweet", "favorite_count", str(2**63), 3, "favorite_count must be in [0, 2**63)",
                 id="favorites-at-bound"),
    pytest.param("tweet", "favorite_count", "-1", 3, "favorite_count must be in [0, 2**63)",
                 id="negative-favorites"),
]

# Whole lines that are not one JSON object: each fails at its own line
# with json.loads's message.
UNDECODABLE = [
    pytest.param("account", None, "\ufeff" + account_line("a"), 2,
                 "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)", id="bom"),
    pytest.param("tweet", None, tweet_line("t1", "a") + tweet_line("t2", "a"), 3, "invalid JSON: Extra data",
                 id="two-objects"),
    pytest.param("tweet", None, tweet_line("t1", "a") + "," + tweet_line("t2", "a"), 3, "invalid JSON: Extra data",
                 id="comma-separated-objects"),
    pytest.param("tweet", None, "123", 3, "record must be a JSON object", id="bare-number"),
    pytest.param("tweet", None, "[1,", 3, "invalid JSON: Expecting value", id="truncated-array"),
]

# One tweet line after account "a", with one field dropped or set to a
# JSON value of the wrong type or range, and the exact error it gives.
TWEET_FIELDS = ("id", "author_id", "created_at", "retweet_count", "favorite_count", "is_retweet")
WRONG_TYPES = {
    "id": (("1.0", "true", "0", "null", "[]", "{}"), "line 2: field(s) must be strings: id"),
    "author_id": (("1.0", "true", "0", "null", "[]", "{}"), "line 2: field(s) must be strings: author_id"),
    "created_at": (("1.0", "true", "0", "null", "[]", "{}"), "line 2: field(s) must be strings: created_at"),
    "retweet_count": (("1.0", "true", '"1"', "null", "[]", "{}"),
                      "line 2: field(s) must be integers: retweet_count"),
    "favorite_count": (("1.0", "true", '"1"', "null", "[]", "{}"),
                       "line 2: field(s) must be integers: favorite_count"),
    "is_retweet": (("1.0", "0", '"1"', "null", "[]", "{}"), "line 2: field(s) must be booleans: is_retweet"),
}
TWEET_FIELD_ERRORS = [
    pytest.param({"id": None}, "line 2: missing field(s): id", id="no-id"),
    pytest.param({"author_id": None}, "line 2: missing field(s): author_id", id="no-author_id"),
    pytest.param({"created_at": None}, "line 2: missing field(s): created_at", id="no-created_at"),
    pytest.param({"retweet_count": None}, "line 2: missing field(s): retweet_count", id="no-retweet_count"),
    pytest.param({"favorite_count": None}, "line 2: missing field(s): favorite_count", id="no-favorite_count"),
    pytest.param({"is_retweet": None}, "line 2: missing field(s): is_retweet", id="no-is_retweet"),
    *(pytest.param({field: raw}, message, id=f"{field}={raw}")
      for field, (raws, message) in WRONG_TYPES.items() for raw in raws),
    pytest.param({"retweet_count": "-1"}, "line 2: bad tweet record: retweet_count must be in [0, 2**63), got -1",
                 id="retweet_count=-1"),
    pytest.param({"retweet_count": str(2**63)},
                 "line 2: bad tweet record: retweet_count must be in [0, 2**63), got 9223372036854775808",
                 id="retweet_count=2**63"),
    pytest.param({"favorite_count": "-1"}, "line 2: bad tweet record: favorite_count must be in [0, 2**63), got -1",
                 id="favorite_count=-1"),
    pytest.param({"favorite_count": str(2**63)},
                 "line 2: bad tweet record: favorite_count must be in [0, 2**63), got 9223372036854775808",
                 id="favorite_count=2**63"),
    pytest.param({"id": "5", "retweet_count": "-1"}, "line 2: field(s) must be strings: id", id="bad-id-and-count"),
    pytest.param({"id": "5", "retweet_count": None}, "line 2: missing field(s): retweet_count",
                 id="bad-id-no-count"),
]



def changed_tweet_line(changes):
    """Tweet "t1" of "a"; ``changes`` maps a field to its JSON text, or to None to drop it."""
    line = tweet_line("t1", "a")
    for field, raw in changes.items():
        if raw is None:
            line = json.dumps({k: v for k, v in json.loads(line).items() if k != field})
        else:
            line = with_raw(line, field, raw)
    return line


# An account line after a valid one that breaks a follower-list rule, or
# two rules at once: the changes to its record, and the loader's words.
FOLLOWER_LIST_ERRORS = [
    pytest.param({"follower_ids": ["b", "b"]},
                 "line 2: bad account record: follower_ids contains duplicates", id="duplicates"),
    pytest.param({"follower_ids": ["a"]},
                 "line 2: bad account record: follower_ids must not contain the account itself", id="itself"),
    pytest.param({"followers_count": 1, "follower_ids": ["b", "c"]},
                 "line 2: bad account record: follower_ids has 2 entries but followers_count is 1",
                 id="longer-than-count"),
    pytest.param({"captured_at": "yesterday", "follower_ids": ["b", "b"]},
                 "line 2: bad account record: Invalid isoformat string: 'yesterday'",
                 id="bad-captured_at-and-duplicates"),
    pytest.param({"follower_ids": ["a", "b", "a"]},
                 "line 2: bad account record: follower_ids contains duplicates", id="duplicates-and-itself"),
]


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
        assert dataset.accounts["a"].window.window_size == 1
        assert dataset.accounts["b"].window is None
        assert dataset.dataset_id == "dataset"
        assert dataset.captured_at == AS_OF

    def test_duplicate_account_rejected(self, tmp_path):
        path = write_lines(tmp_path, account_line("a"), account_line("a"))
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert str(info.value) == "line 2: account 'a' already defined"
        assert info.value.line_no == 2

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
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert str(info.value) == "line 1: tweet 't1' references account 'a' with no preceding account record"
        assert info.value.line_no == 1

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

    @pytest.mark.parametrize("changes, message", FOLLOWER_LIST_ERRORS)
    def test_follower_list_rules_keep_their_words(self, tmp_path, changes, message):
        line = json.dumps({**json.loads(account_line("a")), **changes})
        with pytest.raises(ParseError) as info:
            load_dataset(write_lines(tmp_path, account_line("z"), line))
        assert str(info.value) == message
        assert info.value.line_no == 2

    def test_each_account_is_built_once(self, tmp_path, monkeypatch):
        path = tmp_path / "gen.jsonl"
        save_dataset(generate_synthetic(seed=5, accounts=20, max_followers=5), path)
        kinds = [json.loads(line)["kind"] for line in path.read_text(encoding="utf-8").splitlines()]
        assert "tweet" in kinds
        built = []
        init = store.AccountSnapshot.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        # Wrapping __init__ also counts a build through dataclasses.replace.
        monkeypatch.setattr(store.AccountSnapshot, "__init__", counting)
        load_dataset(path)
        assert len(built) == kinds.count("account")

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
        window = dataset.accounts["a"].window
        assert window.window_size == 100
        assert window.tweet_ids[0] == "t000"
        assert window.tweet_ids[-1] == "t099"

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

    @pytest.mark.parametrize("kind, field, raw, line, reason", MISTYPED + OUT_OF_RANGE + UNDECODABLE)
    def test_malformed_value_reports_line_number(self, tmp_path, kind, field, raw, line, reason):
        path = write_lines(tmp_path, *header_account_tweet(kind, field, raw))
        with pytest.raises(ParseError, match=f"^line {line}: .*{re.escape(reason)}") as info:
            load_dataset(path)
        assert info.value.line_no == line

    def test_counters_just_below_the_bound_load(self, tmp_path):
        lines = header_account_tweet("tweet", "favorite_count", str(2**63 - 1))
        dataset = load_dataset(write_lines(tmp_path, *lines))
        assert dataset.accounts["a"].window.favorite_counts[0] == 2**63 - 1

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(account_line("a").encode() + b'\n{"kind": "\xff"}\n')
        with pytest.raises(ParseError, match="^line 2: invalid JSON: 'utf-8' codec") as info:
            load_dataset(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("kind", ['["account"]', '{"account": 1}', "null", "7"])
    def test_kind_of_any_json_type_is_looked_up(self, tmp_path, kind):
        path = write_lines(tmp_path, *header_account_tweet("account", "kind", kind))
        with pytest.raises(ParseError, match="^line 2: unknown record kind") as info:
            load_dataset(path)
        assert info.value.line_no == 2

    def test_duplicate_and_dangling_carry_line_numbers(self, tmp_path):
        path = write_lines(tmp_path, account_line("a"), account_line("b"), account_line("a"))
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert str(info.value) == "line 3: account 'a' already defined"
        assert info.value.line_no == 3
        path = write_lines(tmp_path, account_line("a"), tweet_line("t1", "b"))
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert str(info.value) == "line 2: tweet 't1' references account 'b' with no preceding account record"
        assert info.value.line_no == 2

    def test_crlf_line_ends_load_and_lone_cr_does_not(self, tmp_path):
        text = "\n".join(header_account_tweet()[1:]) + "\n"
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert load_dataset(path).accounts["a"].window.window_size == 1
        path.write_bytes(text.replace("\n", "\r").encode())
        with pytest.raises(ParseError, match="^line 1: invalid JSON"):
            load_dataset(path)

    def test_reference_fixture_scores(self):
        dataset = load_dataset(DATA_DIR / "reference_accounts.jsonl")
        account = dataset.resolve("@skaigr")
        score = influence_metric(account, dataset.captured_at)
        assert score.value == pytest.approx(35356300.107, rel=1e-3)


class TestTweetLineCheck:
    @pytest.mark.parametrize("changes, message", TWEET_FIELD_ERRORS)
    def test_field_errors_keep_their_words(self, tmp_path, changes, message):
        with pytest.raises(ParseError) as info:
            load_dataset(write_lines(tmp_path, account_line("a"), changed_tweet_line(changes)))
        assert str(info.value) == message
        assert info.value.line_no == 2

    def test_key_order_and_extra_keys_are_free(self, tmp_path):
        canonical = tweet_line("t1", "a", retweets=3, favorites=4, is_retweet=True)
        record = json.loads(canonical)
        reordered = json.dumps({"extra": [1, {"x": None}], **dict(reversed(record.items()))})
        assert list(json.loads(reordered)) == ["extra", *reversed(TWEET_FIELDS), "kind"]
        window = load_dataset(write_lines(tmp_path, account_line("a"), canonical)).accounts["a"].window
        assert load_dataset(write_lines(tmp_path, account_line("a"), reordered)).accounts["a"].window == window
        assert window.retweet_counts == (3,) and window.is_retweet == (True,)

    def test_valid_tweet_lines_skip_the_field_walk(self, tmp_path, monkeypatch):
        path = tmp_path / "gen.jsonl"
        save_dataset(generate_synthetic(seed=5, accounts=20, max_followers=5), path)
        kinds = [json.loads(line)["kind"] for line in path.read_text(encoding="utf-8").splitlines()]
        assert "tweet" in kinds
        checked = []
        record_kind = store._record_kind

        def counting(record, line_no):
            checked.append(record["kind"])
            return record_kind(record, line_no)

        monkeypatch.setattr(store, "_record_kind", counting)
        load_dataset(path)
        assert checked == ["account"] * kinds.count("account")


def load_outcome(path):
    """The loaded dataset, or the ParseError's text and line number."""
    try:
        return load_dataset(path)
    except ParseError as exc:
        return str(exc), exc.line_no


def stdlib_outcome(path):
    """``load_outcome`` with orjson refusing every line, so each takes the stdlib path."""
    refused = []

    def refuse(line):
        refused.append(line)
        raise ValueError("refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store, "_fast_loads", refuse)
        outcome = load_outcome(path)
    assert refused
    return outcome


# Values nested far deeper than json may go, whatever the caller's own
# depth; orjson 3.8 reads some that deep and crashes on others.
DEEP_LIST = "[" * 100_000 + "]" * 100_000
DEEP_OBJECT = '{"b":' * 100_000 + "1" + "}" * 100_000
DEEP_REFUSAL = "maximum recursion depth exceeded while decoding a JSON %s from a unicode string"
# Counters that orjson reads as floats (beyond 64 bits) and json as ints.
WIDE_COUNTERS = [str(2**64), str(10**400), str(-(2**63) - 1)]
# JSON texts that orjson refuses or reads otherwise than json, or nests
# deeper than json may; each is held by a key no record kind has.
DISPUTED_VALUES = ["NaN", "1e400", str(2**64), '"\\ud800"', "[" * 1000 + "]" * 1000]


class TestStdlibReference:
    """Well-formed tweet and account lines that cannot nest deeply are
    decoded by orjson; every other line by the stdlib decoder. Each file
    must load, or fail at the same line with the same words, as it does
    with every line on the stdlib path."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_gen_files_load_the_same(self, tmp_path, seed):
        path = tmp_path / "gen.jsonl"
        save_dataset(generate_synthetic(seed=seed, accounts=60, max_followers=12), path)
        dataset = load_outcome(path)
        assert isinstance(dataset, SnapshotDataset)
        assert dataset == stdlib_outcome(path)

    def test_shuffled_long_windows_load_the_same(self, tmp_path):
        rng = random.Random(11)
        lines = [account_line(author) for author in "abc"]
        for author in "abc":
            tweets = [tweet_line(f"{author}{i}", author, days_ago=rng.uniform(0.01, 30),
                                 retweets=rng.randrange(1000), favorites=rng.randrange(2000),
                                 is_retweet=rng.random() < 0.3) for i in range(130)]
            rng.shuffle(tweets)
            lines += tweets
        path = write_lines(tmp_path, *lines)
        dataset = load_outcome(path)
        assert [account.window.window_size for account in dataset.accounts.values()] == [100, 100, 100]
        assert dataset == stdlib_outcome(path)

    @pytest.mark.parametrize("kind, field, raw, line, reason", MISTYPED + OUT_OF_RANGE + UNDECODABLE)
    def test_malformed_values_fail_the_same(self, tmp_path, kind, field, raw, line, reason):
        path = write_lines(tmp_path, *header_account_tweet(kind, field, raw))
        message, line_no = load_outcome(path)
        assert line_no == line and reason in message
        assert (message, line_no) == stdlib_outcome(path)

    @pytest.mark.parametrize("changes, message", TWEET_FIELD_ERRORS)
    def test_tweet_field_errors_fail_the_same(self, tmp_path, changes, message):
        path = write_lines(tmp_path, account_line("a"), changed_tweet_line(changes))
        assert load_outcome(path) == stdlib_outcome(path) == (message, 2)

    @pytest.mark.parametrize("field", ["retweet_count", "favorite_count"])
    @pytest.mark.parametrize("raw", WIDE_COUNTERS)
    def test_wide_counters_keep_their_words(self, tmp_path, field, raw):
        path = write_lines(tmp_path, *header_account_tweet("tweet", field, raw))
        expected = (f"line 3: bad tweet record: {field} must be in [0, 2**63), got {raw}", 3)
        assert load_outcome(path) == stdlib_outcome(path) == expected

    @pytest.mark.parametrize("raw", DISPUTED_VALUES, ids=["nan", "inf", "2**64", "lone-surrogate", "deep-list"])
    def test_extra_key_with_disputed_value_loads_the_same(self, tmp_path, raw):
        path = write_lines(tmp_path, *header_account_tweet("tweet", "extra", raw))
        assert load_outcome(path) == stdlib_outcome(path)

    @pytest.mark.parametrize("field, first, last, outcome", [
        ("retweet_count", "-1", "5", 5),
        ("retweet_count", "5", "-1", ("line 3: bad tweet record: retweet_count must be in [0, 2**63), got -1", 3)),
        ("kind", '"account"', '"tweet"', 1),
        ("id", "[" * 100 + "]" * 100, '"t1"', 1),
        ("id", DEEP_LIST, '"t1"', (f"line 3: invalid JSON: {DEEP_REFUSAL % 'array'}", 3)),
        ("id", DEEP_OBJECT, '"t1"', (f"line 3: invalid JSON: {DEEP_REFUSAL % 'object'}", 3)),
    ], ids=["last-valid", "last-negative", "kind", "shallow-list", "deep-list", "deep-object"])
    def test_repeated_key_loads_or_fails_the_same(self, tmp_path, field, first, last, outcome):
        """``outcome`` is the loaded retweet count, or the error."""
        record = json.loads(tweet_line("t1", "a"))
        del record[field]
        line = json.dumps(record)[:-1] + f', "{field}": {first}, "{field}": {last}}}'
        path = write_lines(tmp_path, account_line("a"), "# header", line)
        loaded = load_outcome(path)
        assert loaded == stdlib_outcome(path)
        if isinstance(outcome, int):
            assert loaded.accounts["a"].window.retweet_counts == (outcome,)
        else:
            assert loaded == outcome

    @pytest.mark.parametrize("field", ["followers_count", "following_count"])
    @pytest.mark.parametrize("raw", WIDE_COUNTERS)
    def test_wide_account_counters_keep_their_words(self, tmp_path, field, raw):
        path = write_lines(tmp_path, *header_account_tweet("account", field, raw))
        expected = (f"line 2: bad account record: {field} must be in [0, 2**63), got {raw}", 2)
        assert load_outcome(path) == stdlib_outcome(path) == expected

    @pytest.mark.parametrize("raw", DISPUTED_VALUES, ids=["nan", "inf", "2**64", "lone-surrogate", "deep-list"])
    def test_account_extra_key_with_disputed_value_loads_the_same(self, tmp_path, raw):
        path = write_lines(tmp_path, *header_account_tweet("account", "extra", raw))
        assert load_outcome(path) == stdlib_outcome(path)

    @pytest.mark.parametrize("field, first, last, outcome", [
        ("followers_count", "-1", "50", 50),
        ("followers_count", "50", "-1",
         ("line 2: bad account record: followers_count must be in [0, 2**63), got -1", 2)),
        ("followers_count", str(2**64), "50", 50),
        ("follower_ids", '["b", "b"]', '["b"]', 50),
        ("kind", '"tweet"', '"account"', 50),
        ("handle", DEEP_LIST, '"a"', (f"line 2: invalid JSON: {DEEP_REFUSAL % 'array'}", 2)),
        ("handle", DEEP_OBJECT, '"a"', (f"line 2: invalid JSON: {DEEP_REFUSAL % 'object'}", 2)),
    ], ids=["last-valid", "last-negative", "first-wide", "first-duplicate-ids", "kind", "deep-list", "deep-object"])
    def test_repeated_account_key_loads_or_fails_the_same(self, tmp_path, field, first, last, outcome):
        """``outcome`` is the loaded follower count, or the error."""
        record = json.loads(account_line("a", followers=50, follower_ids=["b"]))
        del record[field]
        line = json.dumps(record)[:-1] + f', "{field}": {first}, "{field}": {last}}}'
        path = write_lines(tmp_path, "# header", line, tweet_line("t1", "a"))
        loaded = load_outcome(path)
        assert loaded == stdlib_outcome(path)
        if isinstance(outcome, int):
            assert loaded.accounts["a"].followers_count == outcome
        else:
            assert loaded == outcome

    @pytest.mark.parametrize("pad", [" ", "\t", "\x0b", "\x0c", " \t\x0b\x0c"],
                             ids=["space", "tab", "vt", "ff", "mixed"])
    def test_padded_lines_load_the_same(self, tmp_path, pad):
        """Padding before, after or around each line: orjson refuses some of it, and bytes.strip takes it all."""
        lines = gen_lines(tmp_path)
        padded = [[pad + line, line + pad, pad + line + pad][i % 3] for i, line in enumerate(lines)]
        path = write_lines(tmp_path, *padded, name="padded.jsonl")
        assert_loads_as_written(path, lines)

    def test_crlf_line_ends_load_the_same(self, tmp_path):
        lines = gen_lines(tmp_path)
        path = tmp_path / "crlf.jsonl"
        path.write_bytes("".join(line + "\r\n" for line in lines).encode())
        assert_loads_as_written(path, lines)

    def test_blank_and_comment_lines_between_tweets_load_the_same(self, tmp_path):
        lines = gen_lines(tmp_path)
        spaced = [out for line in lines for out in ([line, "", "# between"] if '"tweet"' in line else [line])]
        path = write_lines(tmp_path, *spaced, name="spaced.jsonl")
        assert_loads_as_written(path, lines)


def assert_loads_as_written(path, lines):
    """``path`` loads as ``lines`` do written plainly, with and without orjson."""
    loaded = load_outcome(path)
    assert loaded == stdlib_outcome(path)
    assert loaded.accounts == load_dataset(write_lines(path.parent, *lines, name="plain.jsonl")).accounts


def gen_lines(tmp_path):
    """The lines of a small gen file, without their line ends."""
    path = tmp_path / "gen.jsonl"
    save_dataset(generate_synthetic(seed=6, accounts=12, max_followers=4), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert sum('"kind":"tweet"' in line for line in lines) > 20
    return lines


def assert_one_str_per_id(dataset):
    """Each account's id is its key's object, each follower id that names
    an account is that account's id object, and equal follower ids in
    different lists are one object."""
    keys = {account_id: account_id for account_id in dataset.accounts}
    first = {}
    for account_id, account in dataset.accounts.items():
        assert account.account_id is account_id
        for follower_id in account.follower_ids:
            assert first.setdefault(follower_id, follower_id) is follower_id
            assert keys.get(follower_id, follower_id) is follower_id


class TestSharedIds:
    """The loader keeps one str per distinct id, on both decode paths."""

    def test_gen_file(self, tmp_path):
        path = tmp_path / "gen.jsonl"
        save_dataset(generate_synthetic(seed=8, accounts=60, max_followers=12), path)
        for dataset in (load_outcome(path), stdlib_outcome(path)):
            assert sum(len(account.follower_ids) for account in dataset.accounts.values()) > 100
            assert_one_str_per_id(dataset)

    def test_follower_listed_before_its_account(self, tmp_path):
        path = write_lines(tmp_path, account_line("acct-a", follower_ids=["acct-b"]),
                           account_line("acct-b", follower_ids=["acct-a"]),
                           account_line("acct-c", follower_ids=["acct-b"]))
        for dataset in (load_outcome(path), stdlib_outcome(path)):
            assert dataset.accounts["acct-a"].follower_ids == ("acct-b",)
            assert_one_str_per_id(dataset)

    def test_id_with_no_account_listed_twice(self, tmp_path):
        path = write_lines(tmp_path, account_line("acct-a", follower_ids=["ghost-1"]),
                           account_line("acct-b", follower_ids=["ghost-1", "acct-a"]))
        for dataset in (load_outcome(path), stdlib_outcome(path)):
            assert "ghost-1" not in dataset.accounts
            assert_one_str_per_id(dataset)
            ghosts = [account.follower_ids[0] for account in dataset.accounts.values()]
            assert ghosts == ["ghost-1", "ghost-1"] and ghosts[0] is ghosts[1]


class TestLoaderState:
    """The loader keeps the current author in locals and pauses the cyclic
    collector; neither may show in what a load returns or leaves behind."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("tail", [[], ["{bad"]], ids=["good", "parse-error"])
    def test_collector_state_is_restored(self, tmp_path, enabled, tail):
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with contextlib.suppress(ParseError):
                load_dataset(write_lines(tmp_path, *SMALL_SNAPSHOT, *tail))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_good_load_leaves_no_cycles(self, tmp_path):
        path = tmp_path / "gen.jsonl"
        save_dataset(generate_synthetic(seed=5, accounts=40, max_followers=10), path)
        gc.collect()
        dataset = load_dataset(path)
        assert gc.collect() == 0
        assert dataset.accounts

    def test_interleaved_authors_load_as_grouped(self, tmp_path):
        a_tweets = [tweet_line(f"a{i}", "a", days_ago=i / 4, retweets=i) for i in range(4)]
        b_tweets = [tweet_line(f"b{i}", "b", days_ago=i / 3, favorites=i) for i in range(3)]
        accounts = [account_line("a"), account_line("b")]
        grouped = load_dataset(write_lines(tmp_path, *accounts, *a_tweets, *b_tweets, name="grouped.jsonl"))
        interleaved = load_dataset(write_lines(
            tmp_path, *accounts, *a_tweets[:2], *b_tweets, *a_tweets[2:], name="interleaved.jsonl"))
        assert interleaved.accounts == grouped.accounts
        assert interleaved.accounts["a"].window.window_size == 4

    def test_duplicate_across_another_author_fails_at_its_line(self, tmp_path):
        path = write_lines(tmp_path, account_line("a"), account_line("b"), tweet_line("t1", "a"),
                           tweet_line("t2", "b"), tweet_line("t1", "a"))
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert str(info.value) == "line 5: duplicate tweet id 't1' for 'a'"
        assert info.value.line_no == 5

    def test_unknown_author_after_another_authors_tweets_fails_at_its_line(self, tmp_path):
        path = write_lines(tmp_path, account_line("a"), tweet_line("t1", "a"), tweet_line("t2", "a"),
                           tweet_line("t3", "ghost"), account_line("ghost"))
        with pytest.raises(ParseError) as info:
            load_dataset(path)
        assert str(info.value) == "line 4: tweet 't3' references account 'ghost' with no preceding account record"
        assert info.value.line_no == 4


def parse_timestamp_before_the_utc_fast_path(raw):
    """``store.parse_timestamp`` as it was before it tried
    ``datetime.fromisoformat`` on the raw string first."""
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is timezone.utc:
        return ts
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {raw!r} is out of range in UTC") from None


def timestamp_outcome(parse, raw):
    """What ``parse`` makes of ``raw``: the instant, or the error's type and words."""
    try:
        ts = parse(raw)
    except Exception as exc:
        return type(exc), str(exc)
    assert ts.tzinfo is timezone.utc
    return ts


class TestParseTimestamp:
    """The UTC fast path accepts, returns and rejects exactly what the one
    grammar did before it, on the running Python: its version decides what
    ``fromisoformat`` takes, so CI holds this on every version it runs."""

    @pytest.mark.parametrize("raw", [
        "2020-06-01T00:00:00.5+00:00", "2020-06-01T00:00:00.123456789Z", "20200601T000000Z",
        "2020-06-01T00:00:00,5+00:00", "2020-06-01t00:00:00z", "2020-06-01t00:00:00Z", "2020-06-01T00:00:00z",
        "2020-06-01T00:00:00Z", "2020-06-01T00:00:00+00:00", "2020-06-01T00:00:00-00:00", "2020-06-01T00:00:00",
        "2020-06-01T05:30:00+05:30", "0001-01-01T00:00:00+01:00", "", "garbage", "Z",
    ])
    def test_same_outcome_as_before(self, raw):
        before = timestamp_outcome(parse_timestamp_before_the_utc_fast_path, raw)
        assert timestamp_outcome(store.parse_timestamp, raw) == before

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789-T:+Z.,tz ", max_size=32)
           | st.builds(str.__add__, st.sampled_from(["2020-06-01T00:00:00", "0001-01-01T00:00", "9999-12-31"]),
                       st.text(alphabet="0123456789-:+Z.,z", max_size=8)))
    def test_same_outcome_as_before_on_near_timestamps(self, raw):
        before = timestamp_outcome(parse_timestamp_before_the_utc_fast_path, raw)
        assert timestamp_outcome(store.parse_timestamp, raw) == before


class TestResolve:
    def test_by_id_handle_and_case(self, tmp_path):
        path = write_lines(tmp_path, account_line("a1", handle="Alice"))
        dataset = load_dataset(path)
        for query in ("a1", "Alice", "alice", "@ALICE"):
            assert dataset.resolve(query).account_id == "a1"

    @pytest.mark.parametrize("query", ["@alice", "alice", "ALICE"])
    def test_stored_handle_with_at_sign(self, tmp_path, query):
        dataset = load_dataset(write_lines(tmp_path, account_line("a1", handle="@alice")))
        assert dataset.resolve(query).account_id == "a1"

    def test_unknown_raises(self, tmp_path):
        dataset = load_dataset(write_lines(tmp_path, account_line("a1")))
        with pytest.raises(UnknownAccount):
            dataset.resolve("nobody")

    @pytest.mark.parametrize("clash", ["ALICE", "@alice", "@@Alice"])
    def test_case_clash_fails_at_load(self, tmp_path, clash):
        path = write_lines(
            tmp_path,
            account_line("a1", handle="Alice"),
            account_line("b1", handle="Bob"),
            account_line("a2", handle=clash),
        )
        message = f"handle '{clash}' clashes with the handle of account 'a1'"
        with pytest.raises(ParseError, match=message) as info:
            load_dataset(path)
        assert info.value.line_no == 3

    def test_clash_in_a_built_dataset_fails_only_when_queried(self):
        dataset = dataset_from_spec({
            "a1": {"handle": "Alice"},
            "a2": {"handle": "ALICE"},
            "b1": {"handle": "Bob"},
        }, dataset_id="dataset")
        assert dataset.resolve("@bob").account_id == "b1"
        assert dataset.resolve("a2").account_id == "a2"
        with pytest.raises(UnknownAccount, match="handle '@alice' is ambiguous in dataset 'dataset'"):
            dataset.resolve("@alice")
        with pytest.raises(UnknownAccount, match="no account 'carol' in dataset 'dataset'"):
            dataset.resolve("carol")


class TestDerivedFields:
    def test_captured_at_is_the_latest_account_capture(self):
        latest = AS_OF + timedelta(hours=5, microseconds=1)
        instants = {"a": AS_OF, "b": latest, "c": AS_OF - timedelta(days=3),
                    "d": latest - timedelta(microseconds=1)}
        dataset = SnapshotDataset("x", {i: make_account(i, captured_at=at) for i, at in instants.items()})
        assert dataset.captured_at == latest

    def test_no_accounts_raises_value_error(self):
        with pytest.raises(ValueError, match="dataset 'x' has no accounts"):
            SnapshotDataset("x", {})

    def test_file_with_no_accounts_fails_in_the_loader(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(ParseError, match="dataset 'empty.jsonl' contains no account records") as info:
            load_dataset(path)
        assert info.value.line_no == 0


class TestRoundTrip:
    def test_save_load_preserves_records(self, tmp_path):
        original = generate_synthetic(seed=3, accounts=20, max_followers=8)
        path = tmp_path / "ds.jsonl"
        save_dataset(original, path)
        reloaded = load_dataset(path)
        assert reloaded.accounts == original.accounts
        assert any(a.window is not None for a in original.accounts.values())
        assert reloaded.captured_at == original.captured_at

    def test_canonical_save_is_stable(self, tmp_path):
        dataset = generate_synthetic(seed=5, accounts=10, max_followers=4)
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_dataset(dataset, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


# Text a writer that splices JSON could get wrong: quotes, backslashes,
# control characters, non-ASCII and astral characters, and record joins.
PRINTABLE_PIECES = ['"', "\\", "a", "A", "@", "é", "\U0001f600", "},{"]
TRICKY_TEXT = st.lists(st.sampled_from(
    PRINTABLE_PIECES + ["\n", "\x00", "\x1f", "\x7f", "\u2028", "}\n{"]
), max_size=5).map("".join)
# Handles that a loaded file keeps: printable, mostly, and unique by what they match.
HANDLES = st.lists(st.lists(st.sampled_from(PRINTABLE_PIECES), max_size=5).map("".join) | TRICKY_TEXT,
                   min_size=4, max_size=4, unique_by=lambda handle: handle.lstrip("@").casefold())
COUNTERS = st.sampled_from([0, 1, 2**63 - 1]) | st.integers(min_value=0, max_value=2**63 - 1)
# Whole seconds, or with microseconds, before the capture instant.
CREATED_AT = st.builds(lambda seconds, micros: AS_OF - timedelta(seconds=seconds, microseconds=micros),
                       st.integers(0, 10**6), st.just(0) | st.integers(0, 999_999))


@st.composite
def tricky_datasets(draw):
    account_ids = draw(st.lists(TRICKY_TEXT, min_size=1, max_size=4, unique=True))
    accounts = {}
    for account_id, handle in zip(account_ids, draw(HANDLES)):
        others = [other for other in account_ids if other != account_id]
        follower_ids = tuple(draw(st.lists(st.sampled_from(others), unique=True)) if others else ())
        tweet_ids = draw(st.lists(TRICKY_TEXT, max_size=4, unique=True))
        rows = [(tweet_id, draw(CREATED_AT), draw(COUNTERS), draw(COUNTERS), draw(st.booleans()))
                for tweet_id in tweet_ids]
        accounts[account_id] = AccountSnapshot(
            account_id=account_id,
            handle=handle,
            followers_count=max(draw(COUNTERS), len(follower_ids)),
            following_count=draw(COUNTERS),
            follower_ids=follower_ids,
            captured_at=AS_OF,
            window=TweetWindow.from_tweets(rows) if rows else None,
        )
    return SnapshotDataset(dataset_id="tricky", accounts=accounts)


class Count(int):
    """An int subclass that formats unlike an int, as an IntEnum may; the
    encoder prints the int it holds."""

    def __format__(self, spec):
        return f"Count({int(self)})"

    __str__ = __repr__ = __format__


# Counters and flags of other types that a library-built window may hold.
OTHER_TYPED = (st.sampled_from([True, False, None, float("nan"), float("inf"), float("-inf")])
               | st.floats() | COUNTERS.map(Count))


@st.composite
def mixed_type_datasets(draw):
    """A tricky dataset whose rows may hold counters and flags of other types."""
    def column(values, others):
        return tuple(draw(st.just(value) | others) for value in values)

    dataset = draw(tricky_datasets())
    accounts = {}
    for account_id, account in dataset.accounts.items():
        window = account.window
        if window is not None:
            window = TweetWindow(window.tweet_ids, window.created_at,
                                 column(window.retweet_counts, OTHER_TYPED),
                                 column(window.favorite_counts, OTHER_TYPED),
                                 column(window.is_retweet, OTHER_TYPED | COUNTERS))
        accounts[account_id] = dataclasses.replace(account, window=window)
    return SnapshotDataset(dataset.dataset_id, accounts)


def loads_back(dataset):
    """Whether the loader accepts the saved file: every handle printable,
    every counter written as an integer (an int, or an int subclass other
    than bool) and every flag an exact bool."""
    windows = [account.window for account in dataset.accounts.values() if account.window]
    return (all(account.handle.isprintable() for account in dataset.accounts.values())
            and all(isinstance(n, int) and type(n) is not bool
                    for window in windows for n in window.retweet_counts + window.favorite_counts)
            and all(type(flag) is bool for window in windows for flag in window.is_retweet))


class TestWriter:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(dataset=tricky_datasets() | mixed_type_datasets())
    def test_each_line_is_json_dumps_of_its_record(self, dataset):
        expected = []
        for account_id in sorted(dataset.accounts):
            account = dataset.accounts[account_id]
            expected.append({
                "kind": "account", "id": account_id, "handle": account.handle,
                "followers_count": account.followers_count, "following_count": account.following_count,
                "follower_ids": list(account.follower_ids), "captured_at": account.captured_at.isoformat(),
            })
            for tweet_id, created_at, retweets, favorites, is_retweet in (account.window.rows() if account.window else ()):
                expected.append({
                    "kind": "tweet", "id": tweet_id, "author_id": account_id,
                    "created_at": created_at.isoformat(), "retweet_count": retweets,
                    "favorite_count": favorites, "is_retweet": is_retweet,
                })
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tricky.jsonl"
            save_dataset(dataset, path)
            assert path.read_bytes() == "".join(
                json.dumps(record, separators=(",", ":")) + "\n" for record in expected
            ).encode("utf-8")
            if loads_back(dataset):
                assert load_dataset(path) == dataset
            else:
                with pytest.raises(ParseError):
                    load_dataset(path)

    def test_counters_of_other_types_are_written_as_before(self, tmp_path):
        # A library-built window may hold a float or a bool counter; the
        # bytes were computed before tweet lines stopped going through the
        # encoder one by one.
        window = TweetWindow(
            ("t2", "t1"), (AS_OF, AS_OF - timedelta(hours=12, microseconds=750000)),
            (1.5, 3), (True, 0), (False, True),
        )
        account = AccountSnapshot("a", "alice", 5, 0, (), AS_OF, window=window)
        path = tmp_path / "typed.jsonl"
        save_dataset(SnapshotDataset("typed", {"a": account}), path)
        assert path.read_bytes() == (
            b'{"kind":"account","id":"a","handle":"alice","followers_count":5,"following_count":0,'
            b'"follower_ids":[],"captured_at":"2023-05-01T00:00:00+00:00"}\n'
            b'{"kind":"tweet","id":"t2","author_id":"a","created_at":"2023-05-01T00:00:00+00:00",'
            b'"retweet_count":1.5,"favorite_count":true,"is_retweet":false}\n'
            b'{"kind":"tweet","id":"t1","author_id":"a","created_at":"2023-04-30T11:59:59.250000+00:00",'
            b'"retweet_count":3,"favorite_count":0,"is_retweet":true}\n'
        )


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

    @pytest.mark.parametrize("limit", [1, 5, 50])
    def test_each_call_returns_its_own_list(self, limit):
        ids = ("f5", "ghost-b", "f1", "f3", "ghost-a", "f4", "f2", "f6", "f0")
        spec = {"root": {"follower_ids": ids, "followers_count": len(ids)}}
        spec.update({fid: {} for fid in ids if fid.startswith("f")})
        dataset = dataset_from_spec(spec)
        expected = ["f0", "f1", "f2", "f3", "f4", "f5", "f6"][:limit]

        first = followers_of(dataset, "root", limit)
        assert [s.account_id for s in first] == expected
        assert all(s is dataset.accounts[s.account_id] for s in first)
        for change in (list.reverse, lambda got: got.append(dataset.accounts["root"]), list.clear):
            change(followers_of(dataset, "root", limit))
            assert followers_of(dataset, "root", limit) == first
        assert [s.account_id for s in first] == expected


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
        windows = [a.window for a in dataset.accounts.values() if a.window is not None]
        assert windows, "generator should produce active accounts"
        for window in windows:
            assert 1 <= window.window_size <= 100
            assert window.created_at[0] <= dataset.captured_at

    def test_too_few_accounts_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=1, accounts=1, max_followers=5)


# A small valid snapshot: four accounts, one of them a stub ("d").
SMALL_SNAPSHOT = [
    account_line("a", follower_ids=("b", "c")),
    tweet_line("a1", "a", days_ago=0.5, retweets=3, is_retweet=True),
    tweet_line("a2", "a", days_ago=2.0),
    account_line("b", follower_ids=("c", "d")),
    tweet_line("b1", "b", days_ago=1.0, favorites=5),
    account_line("c", follower_ids=("d",)),
    tweet_line("c1", "c", days_ago=3.0, is_retweet=True),
    account_line("d"),
]
FIELDS = sorted({field for line in SMALL_SNAPSHOT for field in json.loads(line)})

# Values at the edges the loader must police; each is tried in every field.
EDGE_VALUES = [2**63 - 1, 2**63, 10**400, 1.0, True, float("nan"), "\ud800x", "a",
               "0001-01-01T00:00:00+01:00", "tweet", ["a"]]
JSON_VALUES = st.sampled_from(EDGE_VALUES) | st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8) | st.integers(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=4,
)


def lines_with(field):
    return [i for i, line in enumerate(SMALL_SNAPSHOT) if field in json.loads(line)]


def check_mutation(index, field, value):
    """Set ``field`` of line ``index + 1`` to ``value``. The file must load
    or fail at that line or a later one; once loaded, score and compare
    must not end in an internal error."""
    record = json.loads(SMALL_SNAPSHOT[index])
    record[field] = value
    lines = SMALL_SNAPSHOT[:index] + [json.dumps(record)] + SMALL_SNAPSHOT[index + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            dataset = load_dataset(path)
        except ParseError as exc:
            # A changed account id or capture time may fail a later tweet line.
            assert exc.line_no >= index + 1
            return
        handles = [account.handle for account in dataset.accounts.values()]
        root = min(dataset.accounts)
        # Encodes strictly, as a real UTF-8 stdout does.
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main(["score", "--dataset", str(path), "--", *handles]) != 3
            assert main(["compare", "--dataset", str(path), f"--root={root}"]) != 3


@pytest.mark.parametrize("field", FIELDS)
def test_edge_values_load_or_fail_at_their_line(field):
    for value in EDGE_VALUES:
        check_mutation(lines_with(field)[0], field, value)


@pytest.mark.parametrize("field", FIELDS)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_any_json_value_loads_or_fails_at_its_line(field, data):
    index = data.draw(st.sampled_from(lines_with(field)), label="line index")
    check_mutation(index, field, data.draw(JSON_VALUES, label="value"))
