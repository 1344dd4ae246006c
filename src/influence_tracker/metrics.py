"""Account scoring: tweet-creation rate, influence score, and h-indexes.

Score definition
----------------
For an account with ``Followers`` followers and ``Following`` followed
accounts, posting at a rate of ``TCR`` tweets per day over its latest
(up to 100) tweets:

    influence = TCR * OOM(Followers) * log10(Followers / Following + 1)

where OOM(n) is the order of magnitude of the follower count
(10^floor(log10 n), and 0 for n = 0 so that follower-less accounts score
zero). The +1 offset inside the log keeps the last factor positive even
when the two counts are equal; a zero Following is treated as 1 to keep
the ratio finite.

TCR divides the window size by the age, in days, of the oldest tweet in
the window at the evaluation instant; the age is clamped below at one
second so a burst of simultaneous tweets cannot divide by zero. Retweets
count like any other tweet.

The retweet/favorite h-index of a window is the largest h such that h of
its tweets have at least h retweets (favorites); the "daily" variants
divide by the window's time span in days.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Sequence

from .errors import ClockSkew
from .models import AccountSnapshot, TweetWindow

SECONDS_PER_DAY = 86400.0

# Smallest window span, in days (one second): division-by-zero guard.
EPSILON_DAYS = 1.0 / SECONDS_PER_DAY


@dataclass(frozen=True)
class InfluenceScore:
    """An influence value together with the three factors it multiplies.

    ``value`` is always the literal product ``tcr * oom_followers *
    ftf_factor`` of the stored fields, so the decomposition can be audited
    bit-for-bit.
    """

    tcr: float
    oom_followers: float
    ftf_factor: float
    value: float


@dataclass(frozen=True)
class HIndexReport:
    """Retweet/favorite h-indexes of a window, raw and per-day."""

    retweet_h_last100: int
    favorite_h_last100: int
    retweet_h_daily: float
    favorite_h_daily: float
    span_days: float


def window_span_days(window: TweetWindow, as_of: datetime) -> float:
    """Age in days of the oldest tweet in the window, clamped to >= 1 second.

    Raises ClockSkew if any tweet is newer than ``as_of``.
    """
    newest = window.created_at[0]
    if newest > as_of:
        raise ClockSkew(
            f"tweet {window.tweet_ids[0]} created {newest.isoformat()} "
            f"is newer than as_of {as_of.isoformat()}"
        )
    span = (as_of - window.created_at[-1]).total_seconds() / SECONDS_PER_DAY
    return max(EPSILON_DAYS, span)


def compute_tcr(window: TweetWindow, as_of: datetime) -> float:
    """Tweets per day over the window: size / age of its oldest tweet."""
    return window.window_size / window_span_days(window, as_of)


def order_of_magnitude(n: int) -> float:
    """Largest power of ten that is <= n; 0.0 for n = 0.

    Computed from the decimal digit count so exact powers of ten are never
    misrounded by floating-point log10.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return float(10 ** (len(str(n)) - 1))


def follower_following_factor(followers_count: int, following_count: int) -> float:
    """log10(followers/following + 1), with a zero following treated as 1."""
    effective_following = max(following_count, 1)
    return math.log10(followers_count / effective_following + 1.0)


def influence_metric(snapshot: AccountSnapshot, as_of: datetime) -> InfluenceScore:
    """Score an account from its snapshot and tweet window.

    A stub (no window) is an inactive account: tcr is 0 and so is the score.
    """
    oom = order_of_magnitude(snapshot.followers_count)
    ftf = follower_following_factor(snapshot.followers_count, snapshot.following_count)
    if snapshot.window is None:
        tcr = 0.0
    else:
        tcr = compute_tcr(snapshot.window, as_of)
    return InfluenceScore(tcr=tcr, oom_followers=oom, ftf_factor=ftf, value=tcr * oom * ftf)


def h_index(counts: Iterable[int] | Sequence[int]) -> int:
    """Largest h such that at least h of the counts are >= h."""
    # Sort ascending, then reverse in place: reverse=True flips the list
    # before sorting, which splits runs of equal counts, so an already
    # ascending input with ties sorts about twice as slowly.
    ordered = sorted(counts)
    ordered.reverse()
    h = 0
    for c in ordered:
        if c <= h:
            return h
        h += 1
    return h


def h_index_report(window: TweetWindow, as_of: datetime) -> HIndexReport:
    """Retweet and favorite h-indexes over the window, raw and per-day."""
    span = window_span_days(window, as_of)
    retweet_h = h_index(window.retweet_counts)
    favorite_h = h_index(window.favorite_counts)
    return HIndexReport(
        retweet_h_last100=retweet_h,
        favorite_h_last100=favorite_h,
        retweet_h_daily=retweet_h / span,
        favorite_h_daily=favorite_h / span,
        span_days=span,
    )


def retweet_probability(window: TweetWindow) -> float:
    """Fraction of the window that is retweets, in [0, 1]."""
    return sum(window.is_retweet) / window.window_size
