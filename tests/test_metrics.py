import itertools
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_tracker import (
    ClockSkew,
    TweetWindow,
    compute_tcr,
    h_index,
    h_index_report,
    influence_metric,
    order_of_magnitude,
    retweet_probability,
)
from influence_tracker.metrics import EPSILON_DAYS, follower_following_factor

from conftest import AS_OF, make_account, make_tweets, make_window


def brute_force_h(counts):
    # definitional scan: largest h with at least h entries >= h
    return max(
        (h for h in range(len(counts) + 1) if sum(1 for c in counts if c >= h) >= h),
        default=0,
    )


class TestComputeTcr:
    def test_hundred_tweets_over_one_day(self):
        window = make_window("a", n=100, span_days=1.0)
        assert compute_tcr(window, AS_OF) == 100.0

    def test_single_tweet_at_as_of_clamps_to_one_second(self):
        window = TweetWindow.from_tweets(make_tweets("a", 1, 0.0))
        assert compute_tcr(window, AS_OF) == 86400.0

    def test_fifty_tweets_over_four_days(self):
        window = make_window("a", n=50, span_days=4.0)
        assert compute_tcr(window, AS_OF) == pytest.approx(50 / 4.0)

    def test_empty_window_rejected(self):
        # The window is refused when built, so compute_tcr never sees it.
        with pytest.raises(ValueError, match="window holds 0 tweets"):
            compute_tcr(TweetWindow((), (), (), (), ()), AS_OF)

    def test_tweet_newer_than_as_of_rejected(self):
        window = make_window("a", n=5, span_days=1.0)
        with pytest.raises(ClockSkew):
            compute_tcr(window, AS_OF - timedelta(hours=1))

    @given(st.integers(min_value=1, max_value=100), st.floats(min_value=0.01, max_value=365))
    def test_halving_the_span_doubles_the_rate(self, n, span):
        full = compute_tcr(make_window("a", n=n, span_days=span), AS_OF)
        half = compute_tcr(make_window("a", n=n, span_days=span / 2), AS_OF)
        if span / 2 > EPSILON_DAYS:
            assert half == pytest.approx(2 * full)


class TestOrderOfMagnitude:
    @pytest.mark.parametrize("n,expected", [
        (0, 0.0),
        (1, 1.0),
        (9, 1.0),
        (10, 10.0),
        (99, 10.0),
        (100, 100.0),
        (178446, 100000.0),
        (1185201, 1000000.0),
        (10**15, float(10**15)),
    ])
    def test_known_values(self, n, expected):
        assert order_of_magnitude(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            order_of_magnitude(-1)

    @given(st.integers(min_value=1, max_value=10**18))
    def test_sandwich(self, n):
        oom = order_of_magnitude(n)
        assert oom <= n < 10 * oom


class TestInfluenceMetric:
    def test_reference_score_large_news_account(self):
        window = make_window("a", n=100, span_days=1.0)
        snapshot = make_account("a", followers_count=178446, following_count=52, window=window)
        score = influence_metric(snapshot, AS_OF)
        assert score.value == pytest.approx(35356300.107, rel=1e-3)

    def test_reference_score_million_follower_account(self):
        window = make_window("a", n=100, span_days=1.0)
        snapshot = make_account("a", followers_count=1185201, following_count=455, window=window)
        score = influence_metric(snapshot, AS_OF)
        assert score.value == pytest.approx(341594730.673, rel=1e-3)

    def test_zero_followers_scores_zero(self):
        window = make_window("a", n=50, span_days=2.0)
        snapshot = make_account("a", followers_count=0, following_count=10, window=window)
        score = influence_metric(snapshot, AS_OF)
        assert score.value == 0.0
        assert score.oom_followers == 0.0

    def test_missing_window_scores_zero(self):
        snapshot = make_account("a", followers_count=5000)
        score = influence_metric(snapshot, AS_OF)
        assert score.value == 0.0 and score.tcr == 0.0

    def test_equal_followers_and_following_keeps_score_positive(self):
        import math
        snapshot = make_account("a", followers_count=500, following_count=500, window=make_window("a"))
        score = influence_metric(snapshot, AS_OF)
        assert score.ftf_factor == math.log10(2)
        assert score.value > 0

    def test_zero_following_treated_as_one(self):
        import math
        assert follower_following_factor(100, 0) == math.log10(101)

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_value_is_exactly_the_product_of_its_factors(self, followers, following, delta):
        window = make_window("a", n=20, span_days=3.0)
        snapshot = make_account("a", followers_count=followers, following_count=following, window=window)
        score = influence_metric(snapshot, AS_OF)
        assert score.value == score.tcr * score.oom_followers * score.ftf_factor

        # more followers, same everything else: never a lower score
        bigger = make_account("a", followers_count=followers + delta, following_count=following, window=window)
        assert influence_metric(bigger, AS_OF).value >= score.value


class TestHIndex:
    @pytest.mark.parametrize("counts,expected", [
        ([], 0),
        ([0], 0),
        ([5, 5, 5, 5, 5], 5),
        ([10, 8, 5, 4, 3, 2, 1, 0], 4),
        ([1, 1, 1, 1], 1),
        ([100] * 100, 100),
    ])
    def test_known_values(self, counts, expected):
        assert h_index(counts) == expected

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
    def test_matches_brute_force(self, counts):
        assert h_index(counts) == brute_force_h(counts)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=50))
    def test_bounds_and_permutation_invariance(self, counts):
        h = h_index(counts)
        assert 0 <= h <= len(counts)
        assert h_index(list(reversed(counts))) == h
        assert h_index(sorted(counts)) == h

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=50))
    def test_appending_a_large_count_never_decreases(self, counts):
        h = h_index(counts)
        assert h_index(counts + [h]) >= h
        assert h_index(counts + [h + 10]) >= h


class TestHIndexReport:
    def test_saturated_window(self):
        window = make_window("a", n=100, span_days=10.0, retweet_counts=[100] * 100)
        report = h_index_report(window, AS_OF)
        assert report.retweet_h_last100 == 100
        assert report.retweet_h_daily == pytest.approx(10.0)

    def test_all_zero_counts(self):
        window = make_window("a", n=20, span_days=5.0)
        report = h_index_report(window, AS_OF)
        assert report.retweet_h_last100 == 0
        assert report.favorite_h_last100 == 0
        assert report.retweet_h_daily == 0.0
        assert report.favorite_h_daily == 0.0

    def test_small_window(self):
        window = make_window("a", n=5, span_days=2.0, retweet_counts=[3, 3, 3, 1, 0])
        report = h_index_report(window, AS_OF)
        assert report.retweet_h_last100 == 3
        assert report.retweet_h_daily == pytest.approx(1.5)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window holds 0 tweets"):
            h_index_report(TweetWindow.from_tweets([]), AS_OF)


class TestRetweetProbability:
    @pytest.mark.parametrize("fraction,expected", [(1.0, 1.0), (0.0, 0.0), (0.25, 0.25)])
    def test_known_fractions(self, fraction, expected):
        window = make_window("a", n=100, span_days=1.0, retweet_fraction=fraction)
        assert retweet_probability(window) == expected

    def test_counts_retweet_flags(self):
        window = make_window("a", n=8, span_days=1.0, retweet_fraction=0.5)
        expected = sum(1 for flag in window.is_retweet if flag) / 8
        assert retweet_probability(window) == expected

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window holds 0 tweets"):
            retweet_probability(TweetWindow((), (), (), (), ()))


class TestTweetWindow:
    def test_empty_window_cannot_be_built(self):
        # An account with no tweets has no window at all (it is a stub).
        with pytest.raises(ValueError, match="window holds 0 tweets, must hold 1 to 100"):
            TweetWindow((), (), (), (), ())
        with pytest.raises(ValueError, match="window holds 0 tweets"):
            TweetWindow.from_tweets([])

    @pytest.mark.parametrize("tweets,message", [
        (make_tweets("a", 3, 1.0)[::-1], "tweets must be ordered newest-first"),
        (make_tweets("a", 2, 0.0)[::-1], "equal-timestamp tweets must be ordered by tweet_id"),
        (make_tweets("a", 101, 1.0), "window holds 101 tweets, must hold 1 to 100"),
    ], ids=["oldest-first", "equal-times-ids-descending", "101-tweets"])
    def test_bad_order_or_size_rejected(self, tweets, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TweetWindow(*zip(*tweets))

    def test_order_check_matches_the_pair_loop(self):
        # Every window of up to 5 tweets drawn from 3 instants and 3 ids:
        # the same accept/reject result and first message as a plain loop
        # over adjacent pairs.
        def pair_errors(created_at, tweet_ids):
            errors = []
            for newer, older, newer_id, older_id in zip(created_at, created_at[1:], tweet_ids, tweet_ids[1:]):
                if newer < older:
                    errors.append("tweets must be ordered newest-first")
                elif newer == older and newer_id >= older_id:
                    errors.append("equal-timestamp tweets must be ordered by tweet_id")
            return errors

        instants = [AS_OF - timedelta(hours=h) for h in range(3)]
        tweets = list(itertools.product(["t0", "t1", "t2"], instants))
        first_errors_of_mixed = set()
        for n in range(1, 6):
            for window in itertools.product(tweets, repeat=n):
                tweet_ids, created_at = zip(*window)
                errors = pair_errors(created_at, tweet_ids)
                try:
                    TweetWindow(tweet_ids, created_at, (0,) * n, (0,) * n, (False,) * n)
                except ValueError as exc:
                    assert errors and str(exc) == errors[0], window
                else:
                    assert not errors, window
                if len(set(errors)) == 2:
                    first_errors_of_mixed.add(errors[0])
        # Windows both out of order and wrongly tied were met with either error first.
        assert len(first_errors_of_mixed) == 2

    def test_columns_of_unequal_length_rejected(self):
        ids, created_at, retweets, favorites, flags = zip(*make_tweets("a", 3, 1.0))
        with pytest.raises(ValueError, match="^window columns must all hold the same number of tweets$"):
            TweetWindow(ids, created_at, retweets[:2], favorites, flags)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_from_tweets_matches_a_reference_sort(self, data):
        """1 to 250 rows in window order, reversed, shuffled, or with equal
        timestamps in descending id order: the window of the newest 100."""
        n = data.draw(st.integers(1, 250), label="n")
        # Few distinct instants, so that many rows share one.
        seconds = data.draw(st.lists(st.integers(0, n // 3), min_size=n, max_size=n), label="seconds")
        rows = [(f"t{i:03d}", AS_OF - timedelta(seconds=s), i % 7, i % 5, i % 3 == 0)
                for i, s in enumerate(seconds)]
        newest_first = sorted(rows, key=lambda row: (AS_OF - row[1], row[0]))
        arrangement = data.draw(st.sampled_from(["in-order", "reversed", "shuffled", "ties-by-descending-id"]))
        if arrangement == "in-order":
            given_rows = newest_first
        elif arrangement == "reversed":
            given_rows = newest_first[::-1]
        elif arrangement == "shuffled":
            given_rows = data.draw(st.permutations(rows))
        else:
            given_rows = sorted(sorted(rows, reverse=True), key=lambda row: AS_OF - row[1])
        expected = TweetWindow(*zip(*newest_first[:100]))
        assert TweetWindow.from_tweets(given_rows) == expected
        assert TweetWindow.from_tweets(iter(given_rows)) == expected

    def test_rows_give_back_the_tweets_newest_first(self):
        tweets = make_tweets("a", 5, 1.0, retweet_counts=[5, 4, 3, 2, 1], retweet_fraction=0.4)
        window = TweetWindow.from_tweets(reversed(tweets))
        assert list(window.rows()) == tweets
        assert window.retweet_counts == (5, 4, 3, 2, 1)
        assert window.is_retweet == (True, True, False, False, False)
