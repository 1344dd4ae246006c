"""Snapshot datasets: JSONL persistence, follower lookup, synthetic data.

File format (UTF-8, one JSON object per line, "\n" or "\r\n" line ends):

    {"kind": "account", "id": ..., "handle": ..., "followers_count": ...,
     "following_count": ..., "follower_ids": [...], "captured_at": RFC 3339}
    {"kind": "tweet", "id": ..., "author_id": ..., "created_at": RFC 3339,
     "retweet_count": ..., "favorite_count": ..., "is_retweet": ...}

``_FIELDS`` gives each field's exact JSON type: a counter is an integer
in [0, 2**63), never a float or a boolean. The loader holds the counter
bounds, the handle rule (valid UTF-8, every character printable, so a
handle cannot split a table row) and the follower-list rules, beside
``_FIELDS``; of the record types, only ``TweetWindow`` checks itself (its
size and order). orjson decodes a line only if it cannot nest past 255
levels: it is under 512 bytes, or no "{" follows its first byte and it holds
one "[" at most. Its record is taken if it holds a tweet's seven keys and no
other, passing the tweet row of ``_FIELDS`` inline, or an account's seven
keys, passing ``_record_kind``. The stdlib decoder and ``_record_kind``
decode and word every other line, blank and comment lines included.
Lines starting with "#" are comments. Accounts must precede their
tweets; otherwise line order is free. Every other line becomes a record
or raises ParseError with its line number: bytes that are not UTF-8,
invalid JSON, unknown kinds, missing or mistyped fields, duplicate
accounts or tweet ids, handles that match an earlier account's handle
(see ``_handle_key``), tweets without a preceding account record, and
invariant violations. A file with no account record fails too: a
dataset's capture instant is its latest account capture time.

An account with counters but no tweets is a *stub*: a frontier account
whose own activity was never fetched. A stub's window is None, and it
ranks as inactive (zero tweet rate). Follower ids that resolve to no
account record at all are tolerated on load and skipped by followers_of,
since they carry no counters to rank. A loaded dataset holds one str per
distinct id: each follower list shares the objects of the accounts' keys.
"""

from __future__ import annotations

import contextlib
import gc
import json
import operator
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import ceil, log
from pathlib import Path

from orjson import dumps as _fast_dumps, loads as _fast_loads

from .errors import ParseError, UnknownAccount
from .models import MAX_WINDOW_SIZE, AccountSnapshot, TweetRow, TweetWindow

# Each record kind's fields in file order, with the JSON type each must
# hold exactly. The one list field, follower_ids, holds strings.
_FIELDS = {
    "account": (
        ("id", str), ("handle", str), ("followers_count", int),
        ("following_count", int), ("follower_ids", list), ("captured_at", str),
    ),
    "tweet": (
        ("id", str), ("author_id", str), ("created_at", str),
        ("retweet_count", int), ("favorite_count", int), ("is_retweet", bool),
    ),
}
_PLURALS = {str: "strings", int: "integers", list: "lists of strings", bool: "booleans"}
# Every counter is below this bound, so it fits a signed 64-bit integer.
COUNT_BOUND = 2**63
# One shared encoder: json.dumps builds one per call.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode
# A tweet line's kind and six fields in one C call; KeyError if one is missing.
_tweet_fields = operator.itemgetter("kind", *(name for name, _ in _FIELDS["tweet"]))
_tzinfo, _isoformat = operator.attrgetter("tzinfo"), operator.methodcaller("isoformat")


@contextlib.contextmanager
def _collector_paused():
    """The cyclic collector off for the block, back on after it only if it was on before."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _handle_key(handle: str) -> str:
    """What a handle matches by: case-insensitive, leading "@" optional."""
    return handle.lstrip("@").casefold()


@dataclass
class SnapshotDataset:
    """All accounts, each with its tweet window, captured in one snapshot.

    Not changed after load/generation. ``captured_at`` is the latest
    account capture time; a dataset with no accounts raises ValueError. A
    loaded dataset has no two handles with the same ``_handle_key``.

    The casefolded-handle index is built with the dataset. ``followers_of``
    caches each account's resolvable follower snapshots, in id order, which
    is also the ranking's tie order; racing threads store equal tuples, each
    in one assignment.
    """

    dataset_id: str
    accounts: dict[str, AccountSnapshot]
    captured_at: datetime = field(init=False)
    _by_handle: dict[str, list[AccountSnapshot]] = field(init=False, repr=False, compare=False)
    _sorted_followers: dict[str, tuple[AccountSnapshot, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.accounts:
            raise ValueError(f"dataset {self.dataset_id!r} has no accounts")
        self.captured_at = max(a.captured_at for a in self.accounts.values())
        self._by_handle = {}
        for account in self.accounts.values():
            self._by_handle.setdefault(_handle_key(account.handle), []).append(account)

    def resolve(self, handle_or_id: str) -> AccountSnapshot:
        """Find an account by exact id, or by handle (case-insensitive,
        leading "@" optional). Raises UnknownAccount."""
        if handle_or_id in self.accounts:
            return self.accounts[handle_or_id]
        matches = self._by_handle.get(_handle_key(handle_or_id), [])
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise UnknownAccount(f"handle {handle_or_id!r} is ambiguous in dataset {self.dataset_id!r}")
        raise UnknownAccount(f"no account {handle_or_id!r} in dataset {self.dataset_id!r}")


def parse_timestamp(raw: str) -> datetime:
    """An instant in ``fromisoformat``'s grammar, moved to UTC; ``Z`` is read
    as +00:00 also on 3.10, and an instant with no offset is taken as UTC.

    Raises ValueError for anything else, including an instant that falls
    outside the years 1 to 9999 once moved to UTC.
    """
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:  # 3.10 does not read "Z"; the retry words every rejection
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is timezone.utc:
        return ts
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {raw!r} is out of range in UTC") from None


def _record_kind(record: dict, line_no: int) -> str:
    """The record's kind, once every field of that kind is present, holds
    exactly its JSON type and, for a counter, lies in [0, 2**63). Raises
    ParseError otherwise."""
    kind = record.get("kind")
    fields = _FIELDS.get(kind) if type(kind) is str else None
    if fields is None:
        raise ParseError(line_no, f"unknown record kind {kind!r}")
    for name, json_type in fields:
        value = record.get(name)
        if type(value) is not json_type:
            break
        if json_type is int and not 0 <= value < COUNT_BOUND:
            raise ParseError(line_no, f"bad {kind} record: {name} must be in [0, 2**63), got {value}")
        if json_type is list:
            try:  # one C call; both decoders give exact str, so only a non-str item raises
                "".join(value)
            except TypeError:
                break
    else:
        return kind
    missing = [f for f, _ in fields if f not in record]
    if missing:
        raise ParseError(line_no, f"missing field(s): {', '.join(missing)}")
    raise ParseError(line_no, f"field(s) must be {_PLURALS[json_type]}: {name}")


def load_dataset(path: str | Path) -> SnapshotDataset:
    """Parse a JSONL snapshot file into a SnapshotDataset.

    The dataset id is the file stem. Tweets beyond the newest 100 per
    account are dropped (the window covers the latest 100 tweets only).
    The cyclic garbage collector is off while the file loads, and is
    turned back on afterwards only if it was on before.
    """
    path = Path(path)
    # Each account's checked AccountSnapshot fields in order, captured_at last.
    checked: dict[str, tuple] = {}
    # Every account id and follower id, mapped to its first str, so each list and key shares it.
    same_id = {}.setdefault
    handle_owners: dict[str, str] = {}
    tweets: dict[str, dict[str, TweetRow]] = {}
    author = None  # of the last tweet line; gen files group tweets by author
    utc, fromisoformat = timezone.utc, datetime.fromisoformat
    # A good load builds no reference cycles, so the collector would find nothing.
    with _collector_paused():
        # Read in 64 KiB blocks: the default buffer is the file system's block size, often 4 KiB.
        with path.open("rb", buffering=1 << 16) as fh:
            for line_no, line in enumerate(fh, start=1):
                # orjson sees a line of under 512 bytes, which nests 255 deep at most, or one with no "{" after
                # its first byte and one "[" at most. orjson has no depth limit, so a deep enough line crashes
                # it; json refuses one deeper than its recursion limit, even where a repeated key hides it.
                try:  # a well-formed tweet line: orjson's record, checked against _FIELDS["tweet"] inline
                    record = _fast_loads(line) if len(line) < 512 or (
                        line.rfind(b"{") < 1 and line.count(b"[") < 2) else None
                    kind, tweet_id, author_id, raw_created, retweets, favorites, is_retweet = _tweet_fields(record)
                    fast = (kind == "tweet" and len(record) == 7 and type(tweet_id) is str and type(author_id) is str
                            and type(raw_created) is str and type(retweets) is int and type(favorites) is int
                            and type(is_retweet) is bool and 0 <= retweets < COUNT_BOUND and 0 <= favorites < COUNT_BOUND)
                except KeyError:  # a well-formed account line: orjson's record, if _record_kind passes it
                    try:
                        fast = len(record) == 7 and (kind := _record_kind(record, line_no)) == "account"
                    except ParseError:  # the stdlib path words the error, from its own record
                        fast = False
                except (ValueError, TypeError):  # not JSON to orjson, not a dict, or not shown to orjson
                    fast = False
                if not fast:  # any other line: the stdlib decoder, on the line without its outer whitespace
                    line = line.strip()
                    if not line or line.startswith(b"#"):
                        continue
                    try:
                        record = json.loads(line.decode("utf-8"))
                    except (ValueError, RecursionError) as exc:
                        # A JSONDecodeError's msg leaves out its position, which would read as a line number.
                        raise ParseError(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
                    if not isinstance(record, dict):
                        raise ParseError(line_no, "record must be a JSON object")
                    kind = _record_kind(record, line_no)  # every field of its kind is right, or it raises
                    if kind == "tweet":
                        kind, tweet_id, author_id, raw_created, retweets, favorites, is_retweet = _tweet_fields(record)
                if kind != "tweet":  # an account record
                    account_id, handle, followers_count = record["id"], record["handle"], record["followers_count"]
                    if account_id in checked:
                        raise ParseError(line_no, f"account {account_id!r} already defined")
                    try:
                        handle.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ParseError(line_no, f"bad account record: handle {handle!r} is not valid UTF-8") from None
                    if not handle.isprintable():
                        raise ParseError(line_no, f"bad account record: handle {handle!r} is not printable")
                    try:
                        captured_at = parse_timestamp(record["captured_at"])
                    except ValueError as exc:
                        raise ParseError(line_no, f"bad account record: {exc}") from None
                    account_id = same_id(account_id, account_id)
                    follower_ids = tuple(map(same_id, record["follower_ids"], record["follower_ids"]))
                    distinct = set(follower_ids)
                    if len(distinct) != len(follower_ids):
                        raise ParseError(line_no, "bad account record: follower_ids contains duplicates")
                    if account_id in distinct:
                        raise ParseError(line_no, "bad account record: follower_ids must not contain the account itself")
                    if len(follower_ids) > followers_count:
                        raise ParseError(line_no, f"bad account record: follower_ids has {len(follower_ids)} "
                                         f"entries but followers_count is {followers_count}")
                    owner = handle_owners.setdefault(_handle_key(handle), account_id)
                    if owner != account_id:
                        raise ParseError(line_no, f"handle {handle!r} clashes with "
                                         f"the handle of account {owner!r}")
                    checked[account_id] = (account_id, handle, followers_count, record["following_count"],
                                           follower_ids, captured_at)
                    tweets[account_id] = {}
                    continue
                if author_id != author:  # a new author: look up its tweet dict and capture time
                    by_id = tweets.get(author_id)
                    if by_id is None:
                        raise ParseError(line_no, f"tweet {tweet_id!r} references account "
                                         f"{author_id!r} with no preceding account record")
                    author, author_captured_at = author_id, checked[author_id][-1]
                if tweet_id in by_id:
                    raise ParseError(line_no, f"duplicate tweet id {tweet_id!r} for {author_id!r}")
                try:  # a UTC instant as written; parse_timestamp reads any other and words each error
                    created_at = fromisoformat(raw_created)
                    if created_at.tzinfo is not utc:
                        raise ValueError
                except ValueError:
                    try:
                        created_at = parse_timestamp(raw_created)
                    except ValueError as exc:
                        raise ParseError(line_no, f"bad created_at: {exc}") from None
                if created_at > author_captured_at:
                    raise ParseError(line_no, f"tweet {tweet_id!r} created after its account's capture time")
                by_id[tweet_id] = (tweet_id, created_at, retweets, favorites, is_retweet)

        if not checked:
            raise ParseError(0, f"dataset {path.name!r} contains no account records")

        accounts = {}
        for account_id, fields in checked.items():
            by_id = tweets[account_id]
            window = TweetWindow.from_tweets(by_id.values()) if by_id else None
            accounts[account_id] = AccountSnapshot(*fields, window=window)
        return SnapshotDataset(dataset_id=path.stem, accounts=accounts)


def save_dataset(dataset: SnapshotDataset, path: str | Path) -> None:
    """Write a dataset as canonical JSONL, with "\n" line ends on every
    platform: accounts sorted by id, each followed by its window's tweets
    newest-first, each account's lines in one write."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for account_id in sorted(dataset.accounts):
            account = dataset.accounts[account_id]
            lines = [_compact_json({
                "kind": "account",
                "id": account.account_id,
                "handle": account.handle,
                "followers_count": account.followers_count,
                "following_count": account.following_count,
                "follower_ids": account.follower_ids,
                "captured_at": account.captured_at.isoformat(),
            }) + "\n"]
            window = account.window
            if window is not None:
                author_id = _compact_json(account.account_id)
                # orjson prints an exact datetime in timezone.utc as isoformat() does, all of a window's in one
                # call; ISO text holds no quote. Any other instant (naive, another offset, a subclass) prints
                # its own isoformat().
                stamps = window.created_at
                if (all(map(operator.is_, map(type, stamps), repeat(datetime)))
                        and all(map(operator.is_, map(_tzinfo, stamps), repeat(timezone.utc)))):
                    stamps = _fast_dumps(stamps)[2:-2].decode().split('","')
                else:
                    stamps = map(_isoformat, stamps)
                for tweet_id, created_at, retweets, favorites, is_retweet in zip(
                        window.tweet_ids, stamps, window.retweet_counts, window.favorite_counts, window.is_retweet):
                    # A str id, an exact int or bool prints as the encoder would print it, with no encoder
                    # frame, and ISO text needs no escaping; any other id, counter or flag goes through it.
                    tweet_id = (encode_basestring_ascii(tweet_id) if isinstance(tweet_id, str)
                                else _compact_json(tweet_id))
                    flag = "true" if is_retweet is True else "false" if is_retweet is False else _compact_json(is_retweet)
                    lines.append(f'{{"kind":"tweet","id":{tweet_id},"author_id":{author_id},'
                                 f'"created_at":"{created_at}",'
                                 f'"retweet_count":{retweets if type(retweets) is int else _compact_json(retweets)},'
                                 f'"favorite_count":{favorites if type(favorites) is int else _compact_json(favorites)},'
                                 f'"is_retweet":{flag}}}\n')
            fh.write("".join(lines))


def followers_of(dataset: SnapshotDataset, account_id: str, limit: int) -> list[AccountSnapshot]:
    """Up to ``limit`` follower snapshots of an account, smallest ids first.

    This id order is the ranking's tie order: ``rank_followers`` keeps equal
    keys in the order it is given. Follower ids with no account record are
    skipped. Each account's resolvable snapshots are kept on the dataset,
    sorted once, and each call returns a new list. Raises UnknownAccount if
    the account is absent.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    accounts = dataset.accounts
    if account_id not in accounts:
        raise UnknownAccount(f"no account {account_id!r} in dataset {dataset.dataset_id!r}")
    resolvable = dataset._sorted_followers.get(account_id)
    if resolvable is None:
        resolvable = dataset._sorted_followers[account_id] = tuple(
            accounts[fid] for fid in sorted(accounts[account_id].follower_ids) if fid in accounts
        )
    return list(resolvable[:limit])


def _sample(getrandbits, population, k: int) -> tuple:
    """``Random.sample(population, k)`` for 0 <= k <= len(population), from
    the ``getrandbits`` calls CPython 3.10 to 3.13 make for it, in order, with
    no Python frame per draw. A position below m is ``randrange(m)``'s draw:
    m.bit_length() bits, drawn again while they reach m."""
    n = len(population)
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:  # a pool of the live entries; the last one fills each pick's place
        pool = list(population)
        picks = []
        for live in range(n, n - k, -1):
            bits = live.bit_length()
            j = getrandbits(bits)
            while j >= live:
                j = getrandbits(bits)
            picks.append(pool[j])
            pool[j] = pool[live - 1]
        return tuple(picks)
    bits = n.bit_length()
    picks = {}  # positions in the whole population, in the order first drawn; a repeat is drawn again
    while len(picks) < k:
        j = getrandbits(bits)
        if j < n:
            picks[j] = None
    return tuple(map(population.__getitem__, picks))


_SYNTHETIC_EPOCH = datetime(2020, 6, 1, tzinfo=timezone.utc)
_STUB_FRACTION = 0.15
_TWEET_SUFFIXES = tuple(f"{j:03d}" for j in range(MAX_WINDOW_SIZE))


def generate_synthetic(seed: int, accounts: int, max_followers: int) -> SnapshotDataset:
    """Deterministic pseudo-random dataset for tests and demos.

    The same seed always yields the identical dataset (and therefore a
    byte-identical file once saved). Roughly 15% of accounts are stubs;
    the rest carry 1..100 tweets with varying activity spans, engagement
    scales, and retweet propensities.
    """
    if accounts < 2:
        raise ValueError(f"accounts must be >= 2, got {accounts}")
    if max_followers < 1:
        raise ValueError(f"max_followers must be >= 1, got {max_followers}")

    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    ids = [f"acct-{i:05d}" for i in range(accounts)]
    # The ids of every account but account i, in order; one entry changes per account.
    others = ids[1:]
    snapshots: dict[str, AccountSnapshot] = {}

    # randrange(m + 1) is randint(0, m)'s draw without its extra call.
    for i, account_id in enumerate(ids):
        if i:
            others[i - 1] = ids[i - 1]
        n_followers = rng.randrange(min(max_followers, accounts - 1) + 1)
        follower_ids = _sample(getrandbits, others, n_followers)
        followers_count = n_followers + int(10 ** rng.uniform(0, 4))
        following_count = rng.randrange(3001)
        window = None
        if rng.random() >= _STUB_FRACTION:
            n_tweets = 1 + rng.randrange(MAX_WINDOW_SIZE)
            span_days = rng.uniform(0.5, 40.0)
            engagement_scale = int(10 ** rng.uniform(0, 3))
            retweet_propensity = rng.random()
            # Each counter is randrange(n) as the stdlib draws it: k = n.bit_length() random
            # bits, drawn again while they reach n. One C call per draw keeps the stream.
            n_retweets, n_favorites = engagement_scale + 1, engagement_scale * 2 + 1
            k_retweets, k_favorites = n_retweets.bit_length(), n_favorites.bit_length()
            # Offsets draw nothing, except a one-tweet window's, drawn before its counters.
            last = n_tweets - 1
            offsets = [span_days * (j / last) for j in range(n_tweets)] if last else [rng.uniform(0.01, span_days)]
            retweets, favorites, flags = [], [], []
            for _ in offsets:
                value = getrandbits(k_retweets)
                while value >= n_retweets:
                    value = getrandbits(k_retweets)
                retweets.append(value)
                value = getrandbits(k_favorites)
                while value >= n_favorites:
                    value = getrandbits(k_favorites)
                favorites.append(value)
                flags.append(rng.random() < retweet_propensity)
            window = TweetWindow(tuple(map(f"tw-{i:05d}-".__add__, _TWEET_SUFFIXES[:n_tweets])),
                                 tuple(map(_SYNTHETIC_EPOCH.__sub__, map(timedelta, offsets))),
                                 tuple(retweets), tuple(favorites), tuple(flags))
        snapshots[account_id] = AccountSnapshot(
            account_id=account_id,
            handle=f"user_{i:05d}",
            followers_count=followers_count,
            following_count=following_count,
            follower_ids=follower_ids,
            captured_at=_SYNTHETIC_EPOCH,
            window=window,
        )

    return SnapshotDataset(dataset_id=f"synthetic-{seed}", accounts=snapshots)
