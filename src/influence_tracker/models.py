"""Domain records: account snapshots and tweet windows.

These are immutable value objects captured from a crawl (or generated
synthetically). All timestamps are timezone-aware UTC datetimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable

# The scoring window covers at most this many of an account's newest tweets.
MAX_WINDOW_SIZE = 100

# Every counter is below this bound, so it fits a signed 64-bit integer.
COUNT_BOUND = 2**63


@dataclass(frozen=True)
class AccountSnapshot:
    """One account's profile counters, (possibly truncated) follower list
    and tweet window.

    ``follower_ids`` is a sample of the account's followers at capture time;
    it may be shorter than ``followers_count`` but never longer, and never
    contains the account itself or duplicates. ``window`` is None for a
    stub: an account whose tweets were never fetched.
    """

    account_id: str
    handle: str
    followers_count: int
    following_count: int
    follower_ids: tuple[str, ...]
    captured_at: datetime
    window: TweetWindow | None = None

    def __post_init__(self):
        if not 0 <= self.followers_count < COUNT_BOUND:
            raise ValueError(f"followers_count must be in [0, 2**63), got {self.followers_count}")
        if not 0 <= self.following_count < COUNT_BOUND:
            raise ValueError(f"following_count must be in [0, 2**63), got {self.following_count}")
        try:
            self.handle.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"handle {self.handle!r} is not valid UTF-8") from None
        if len(set(self.follower_ids)) != len(self.follower_ids):
            raise ValueError("follower_ids contains duplicates")
        if self.account_id in self.follower_ids:
            raise ValueError("follower_ids must not contain the account itself")
        if len(self.follower_ids) > self.followers_count:
            raise ValueError(
                f"follower_ids has {len(self.follower_ids)} entries but "
                f"followers_count is {self.followers_count}"
            )


@dataclass(frozen=True)
class TweetRecord:
    """One tweet's engagement counters.

    ``is_retweet`` marks a repost of another account's tweet.
    """

    tweet_id: str
    created_at: datetime
    retweet_count: int
    favorite_count: int
    is_retweet: bool

    def __post_init__(self):
        if not 0 <= self.retweet_count < COUNT_BOUND:
            raise ValueError(f"retweet_count must be in [0, 2**63), got {self.retweet_count}")
        if not 0 <= self.favorite_count < COUNT_BOUND:
            raise ValueError(f"favorite_count must be in [0, 2**63), got {self.favorite_count}")


@dataclass(frozen=True)
class TweetWindow:
    """An account's newest tweets, ordered newest-first.

    Holds 1 to MAX_WINDOW_SIZE tweets; an account with no tweets has no
    window. Ordering is created_at descending with tweet_id as a
    deterministic tie-breaker, so identical inputs always produce the
    identical window.
    """

    tweets: tuple[TweetRecord, ...]

    def __post_init__(self):
        if not 1 <= len(self.tweets) <= MAX_WINDOW_SIZE:
            raise ValueError(f"window holds {len(self.tweets)} tweets, must hold 1 to {MAX_WINDOW_SIZE}")
        for newer, older in zip(self.tweets, self.tweets[1:]):
            if newer.created_at < older.created_at:
                raise ValueError("tweets must be ordered newest-first")
            if newer.created_at == older.created_at and newer.tweet_id >= older.tweet_id:
                raise ValueError("equal-timestamp tweets must be ordered by tweet_id")

    @property
    def window_size(self) -> int:
        return len(self.tweets)

    @property
    def oldest(self) -> TweetRecord:
        return self.tweets[-1]

    @property
    def newest(self) -> TweetRecord:
        return self.tweets[0]

    @classmethod
    def from_tweets(cls, tweets: Iterable[TweetRecord]) -> "TweetWindow":
        """Build a window from tweets in any order, keeping the newest 100."""
        by_id = sorted(tweets, key=lambda t: t.tweet_id)
        newest_first = sorted(by_id, key=lambda t: t.created_at, reverse=True)
        return cls(tuple(newest_first[:MAX_WINDOW_SIZE]))
