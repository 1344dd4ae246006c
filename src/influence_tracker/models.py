"""Domain records: account snapshots and tweet windows.

These are immutable value objects captured from a crawl (or generated
synthetically). All timestamps are timezone-aware UTC datetimes. A tweet
is a plain row, ``TweetRow``: no object is built per tweet.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime
from operator import gt, itemgetter
from typing import Iterable, Iterator

# The scoring window covers at most this many of an account's newest tweets.
MAX_WINDOW_SIZE = 100

# One tweet: (tweet_id, created_at, retweet_count, favorite_count,
# is_retweet); ``is_retweet`` marks a repost of another account's tweet.
TweetRow = tuple[str, datetime, int, int, bool]


@dataclass(frozen=True)
class AccountSnapshot:
    """One account's profile counters, (possibly truncated) follower list
    and tweet window.

    ``follower_ids`` is a sample of the account's followers at capture time;
    it may be shorter than ``followers_count`` but never longer, and never
    contains the account itself or duplicates. ``window`` is None for a
    stub: an account whose tweets were never fetched. The loader checks
    these rules, the counter ranges and the handle text; a snapshot built
    in memory is not checked.
    """

    account_id: str
    handle: str
    followers_count: int
    following_count: int
    follower_ids: tuple[str, ...]
    captured_at: datetime
    window: TweetWindow | None = None


@dataclass(frozen=True)
class TweetWindow:
    """An account's newest tweets as columns, one tuple per field, each
    ordered newest-first.

    Holds 1 to MAX_WINDOW_SIZE tweets; an account with no tweets has no
    window. Ordering is created_at descending with tweet_id as a
    deterministic tie-breaker, so identical inputs always produce the
    identical window.
    """

    tweet_ids: tuple[str, ...]
    created_at: tuple[datetime, ...]
    retweet_counts: tuple[int, ...]
    favorite_counts: tuple[int, ...]
    is_retweet: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.tweet_ids)
        if not 1 <= n <= MAX_WINDOW_SIZE:
            raise ValueError(f"window holds {n} tweets, must hold 1 to {MAX_WINDOW_SIZE}")
        if any(len(column) != n for column in (self.created_at, self.retweet_counts,
                                               self.favorite_counts, self.is_retweet)):
            raise ValueError("window columns must all hold the same number of tweets")
        # A strictly newest-first window passes at C speed; any other runs
        # the pair loop, which raises the first error in order.
        if all(map(gt, self.created_at, self.created_at[1:])):
            return
        for newer, older, newer_id, older_id in zip(self.created_at, self.created_at[1:],
                                                     self.tweet_ids, self.tweet_ids[1:]):
            if newer < older:
                raise ValueError("tweets must be ordered newest-first")
            if newer == older and newer_id >= older_id:
                raise ValueError("equal-timestamp tweets must be ordered by tweet_id")

    @property
    def window_size(self) -> int:
        return len(self.tweet_ids)

    def rows(self) -> Iterator[TweetRow]:
        """The window's tweets as rows, newest first."""
        return zip(self.tweet_ids, self.created_at, self.retweet_counts,
                   self.favorite_counts, self.is_retweet)

    @classmethod
    def from_tweets(cls, rows: Iterable[TweetRow]) -> "TweetWindow":
        """Build a window from tweet rows in any order, keeping the newest 100."""
        rows = tuple(rows)
        if 0 < len(rows) <= MAX_WINDOW_SIZE:
            with suppress(ValueError):  # rows in window order make the window as they are; others are sorted
                return cls(*zip(*rows))
        by_id = sorted(rows, key=itemgetter(0))
        newest_first = sorted(by_id, key=itemgetter(1), reverse=True)[:MAX_WINDOW_SIZE]
        return cls(*zip(*newest_first)) if newest_first else cls((), (), (), (), ())
