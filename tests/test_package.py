import importlib.util
from pathlib import Path

import influence_tracker
from influence_tracker import cli

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def test_every_exported_name_exists_once():
    names = influence_tracker.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(influence_tracker, name)] == []


def test_public_names_are_pinned():
    assert sorted(influence_tracker.__all__) == [
        "AccountSnapshot", "ClockSkew", "ComparisonResult", "DatasetError", "HIndexReport",
        "InfluenceScore", "InfluenceTrackerError", "LayeredNetwork", "MAX_WINDOW_SIZE", "NetworkNode",
        "ParseError", "RankingCategory", "SnapshotDataset", "TransmissionPath", "TweetWindow",
        "UnknownAccount", "build_network", "compare_networks", "compute_tcr", "diffusion_totals",
        "enumerate_paths", "followers_of", "generate_synthetic", "h_index", "h_index_report",
        "influence_metric", "load_dataset", "order_of_magnitude", "rank_followers",
        "retweet_probability", "save_dataset", "total_tweet_transmission", "tweet_transmission",
    ]


def test_benchmark_tracer_finds_every_name_it_wraps(capsys):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = dict(vars(cli))
    tracer = tracer_module.Tracer({})
    try:
        tracer.install()
        assert "not found" not in capsys.readouterr().err
        assert cli.compare_networks is not originals["compare_networks"]
    finally:
        tracer.uninstall()
    assert [name for name, value in vars(cli).items() if value is not originals.get(name)] == []
