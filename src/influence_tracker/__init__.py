"""Influence scoring and tweet-diffusion analysis over account snapshots."""

from .diffusion import (
    ComparisonResult,
    TransmissionPath,
    compare_networks,
    diffusion_totals,
    enumerate_paths,
    total_tweet_transmission,
    tweet_transmission,
)
from .errors import (
    ClockSkew,
    DatasetError,
    InfluenceTrackerError,
    ParseError,
    UnknownAccount,
)
from .metrics import (
    HIndexReport,
    InfluenceScore,
    compute_tcr,
    h_index,
    h_index_report,
    influence_metric,
    order_of_magnitude,
    retweet_probability,
)
from .models import MAX_WINDOW_SIZE, AccountSnapshot, TweetWindow
from .network import (
    LayeredNetwork,
    NetworkNode,
    RankingCategory,
    build_network,
    rank_followers,
)
from .store import (
    SnapshotDataset,
    followers_of,
    generate_synthetic,
    load_dataset,
    save_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AccountSnapshot",
    "ClockSkew",
    "ComparisonResult",
    "DatasetError",
    "HIndexReport",
    "InfluenceScore",
    "InfluenceTrackerError",
    "LayeredNetwork",
    "MAX_WINDOW_SIZE",
    "NetworkNode",
    "ParseError",
    "RankingCategory",
    "SnapshotDataset",
    "TransmissionPath",
    "TweetWindow",
    "UnknownAccount",
    "build_network",
    "compare_networks",
    "compute_tcr",
    "diffusion_totals",
    "enumerate_paths",
    "followers_of",
    "generate_synthetic",
    "h_index",
    "h_index_report",
    "influence_metric",
    "load_dataset",
    "order_of_magnitude",
    "rank_followers",
    "retweet_probability",
    "save_dataset",
    "total_tweet_transmission",
    "tweet_transmission",
]
