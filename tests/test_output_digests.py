"""sha256 pins on what ``score`` and ``compare`` print.

Each case runs the CLI in process on the reference fixture or on a small
``gen`` file and checks the exit code, the sha256 of stdout, and the
sha256 of stderr where stderr is not empty. A change to any report byte,
warning or error text fails here. CI also runs this file under fixed
hash seeds, so output that follows set or dict order fails on every run,
not only under some seeds.
"""

import hashlib
from pathlib import Path

import pytest

from influence_tracker import generate_synthetic, save_dataset
from influence_tracker.cli import main

REFERENCE = str(Path(__file__).parent / "data" / "reference_accounts.jsonl")
# File stem -> gen's seed, accounts and max followers. The stem is the
# dataset id that every report prints.
GEN_FILES = {"gen-7": (7, 60, 15), "gen-11": (11, 150, 30)}
EMPTY = hashlib.sha256(b"").hexdigest()

# (dataset, argv after "--dataset FILE", exit code, stdout sha256,
# stderr sha256 or "" for an empty stderr)
CASES = [
    pytest.param(
        "reference", ["score", "SkaiGr", "@youranonnews"], 0,
        "f533c1419d073c3c63f2bd64ce019d314bd8e8faa41e09718c62f22504225615", "",
        id="score-text-reference",
    ),
    pytest.param(
        "gen-7", ["score", "--format", "csv", *(f"user_{i:05d}" for i in range(0, 60, 4)), "acct-00019", "USER_00021"],
        0, "30b4ab6a248aa803c141f52a52a7fad7c00f0e3b3bec8b204340f9d4a10163ca", "",
        id="score-csv",
    ),
    pytest.param(
        "gen-11", ["score", "--format", "json", "--as-of", "2020-06-03T12:00:00+02:00",
                   *(f"acct-{i:05d}" for i in range(0, 150, 7))],
        0, "97d54683ef0bb9fc9114f1bf5635ce9085424a80136940fb76d50ec9bedecaf4", "",
        id="score-json",
    ),
    pytest.param(
        "gen-11", ["compare", "--root", "acct-00112", "--nf", "10,30", "--k", "2,4", "--ttl", "3",
                   "--format", "json", "--dump-networks"],
        0, "1b14d434d52895a1de36eeab6068207c249abd1f61e6d29f83f70c47cee95c7f", "",
        id="compare-json-batched-dump",
    ),
    pytest.param(
        "gen-7", ["compare", "--root", "acct-00013", "--nf", "5,15,15", "--k", "2,3,5", "--ttl", "4",
                  "--format", "csv"],
        0, "5b1fd269acee2504f0ae431c1d830b37f02446e7268ed92dcfb827fbffe01a54", "",
        id="compare-csv-batched",
    ),
    pytest.param(
        "gen-11", ["compare", "--root", "user_00112", "--nf", "8,16,24", "--k", "2", "--ttl", "3"],
        0, "2e99297dbb332fa1b71dd39e58554e4ac34970e4463e6c41a714bf2291b97a09", "",
        id="compare-text-batched",
    ),
    pytest.param(
        "reference", ["compare", "--root", "SkaiGr"],
        0, "19558edc092cd567a5b1895661b6932922b891364c5aefc25725005b8b2607a1",
        "cdadbc5aabe64f9d36ccd1c6cd43f57cbe1b9fd73780c8ad1187a04970da424d",
        id="compare-text-reference",
    ),
    pytest.param(
        "gen-7", ["compare", "--root", "acct-00019", "--nf", "10,20", "--k", "3,5", "--format", "json"],
        0, "7ea2706ea60409b596d41e99b6324fb96a7b3c59a7feb1ef9b484c3d86ecd4d6",
        "206700d9b3f70361fb19212ce3015808adc005671aa2fc9384626da0b355e70f",
        id="compare-no-resolvable-followers",
    ),
    pytest.param(
        "gen-7", ["compare", "--root", "acct-00013", "--as-of", "2020-05-01T00:00:00Z"],
        2, EMPTY, "2196153212da959dad4cd665d52cd0931ba80e2e7e00b81e754b5b8555b24917",
        id="compare-clock-skew",
    ),
    pytest.param(
        "reference", ["score", "--as-of", "2000-01-01T00:00:00Z", "SkaiGr"],
        2, EMPTY, "8608dac49c55989d759ce4f9a44f1e65cbddafc6808ef1d2afc4f7a5a38a00b2",
        id="score-clock-skew-reference",
    ),
]


@pytest.fixture(scope="module")
def dataset_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("digests")
    paths = {"reference": REFERENCE}
    for stem, (seed, accounts, max_followers) in GEN_FILES.items():
        path = folder / f"{stem}.jsonl"
        save_dataset(generate_synthetic(seed, accounts, max_followers), path)
        paths[stem] = str(path)
    return paths


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("dataset, argv, code, out_digest, err_digest", CASES)
def test_output_bytes_are_pinned(capsys, dataset_paths, dataset, argv, code, out_digest, err_digest):
    command, *rest = argv
    assert main([command, "--dataset", dataset_paths[dataset], *rest]) == code
    out, err = capsys.readouterr()
    assert (sha256(out), sha256(err) if err else "") == (out_digest, err_digest)
