"""Time dilation by 2: a symmetry of the model.

Moving every tweet to ``as_of - 2 * (as_of - created_at)`` doubles each
window's span, an exact integer of microseconds, so every unclamped tcr
halves exactly in binary floating point, and with it each influence and
each daily h-index. The last-100 h-indexes count tweets, not time, and
every ratio of two rates, each edge factor and ranking included, is
unchanged. So `compare` prints the same bytes, except that a network
dump's node records carry their own tcr and influence, halved; `score`
prints the same rows with those figures halved.

Dilating only the root's window halves the root's tcr alone. Every path's
product divides by it, so both totals double exactly, with the same path
counts and winner, wherever the networks stay the same. By-followers
ranking reads no rate, so its network always does. Under by-influence the
root's influence halves too, and where the root is a candidate under some
node this can change which accounts the node keeps: a selection of the
root is dropped, not replaced by the next candidate.
"""

import json
import re
from datetime import datetime

import pytest

from influence_tracker import generate_synthetic, save_dataset

from test_cli import run

# A dumped node's own rates: the key, then its JSON number up to the line's comma.
NODE_RATE = re.compile(r'("(?:tcr|influence)": )([^,\n]+)')


def dilated_copy(path, out, author=None):
    """Write ``path`` to ``out`` with every tweet, or only ``author``'s,
    twice as old at the snapshot's capture instant, the latest account
    capture time."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    as_of = max(datetime.fromisoformat(r["captured_at"]) for r in records if r["kind"] == "account")
    with out.open("w", encoding="utf-8") as fh:
        for line, record in zip(lines, records):
            if record["kind"] == "tweet" and author in (None, record["author_id"]):
                created_at = datetime.fromisoformat(record["created_at"])
                record["created_at"] = (as_of - 2 * (as_of - created_at)).isoformat()
                line = json.dumps(record, separators=(",", ":")) + "\n"
            fh.write(line)


def rates_halved(text):
    """``text`` with each dumped node's tcr and influence halved."""
    return NODE_RATE.sub(lambda match: match.group(1) + json.dumps(float(match.group(2)) / 2), text)


@pytest.mark.parametrize("seed", [1, 6])
def test_dilating_every_window_halves_rates_and_keeps_comparisons(tmp_path, capsys, seed):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    original, dilated = tmp_path / "a" / "gen.jsonl", tmp_path / "b" / "gen.jsonl"
    dataset = generate_synthetic(seed=seed, accounts=300, max_followers=40)
    save_dataset(dataset, original)
    dilated_copy(original, dilated)
    ids = sorted(dataset.accounts)
    roots = sorted(ids, key=lambda i: -len(dataset.accounts[i].follower_ids))[:2]

    code, before, err = run(capsys, ["score", "--format", "json", "--dataset", str(original), *ids])
    assert (code, err) == (0, "")  # no window is clamped, in either file
    code, after, err = run(capsys, ["score", "--format", "json", "--dataset", str(dilated), *ids])
    assert (code, err) == (0, "")
    before, after = json.loads(before), json.loads(after)
    halved = ("influence", "tcr", "retweet_h_daily", "favorite_h_daily")
    assert any(row["tcr"] for row in before["rows"])
    for row, dilated_row in zip(before["rows"], after["rows"], strict=True):
        assert {k: row[k] / 2 if k in halved else row[k] for k in row} == dilated_row
    assert {k: v for k, v in before.items() if k != "rows"} == {k: v for k, v in after.items() if k != "rows"}

    for root, ttl in zip(roots, ("3", "4")):
        argv = ["compare", "--root", root, "--nf", "20,40", "--k", "3,5", "--ttl", ttl]
        for extra in ([], ["--format", "json"]):
            before = run(capsys, [*argv, *extra, "--dataset", str(original)])
            assert before[0] == 0
            assert before == run(capsys, [*argv, *extra, "--dataset", str(dilated)])
        dump = [*argv, "--format", "json", "--dump-networks"]
        code, before, err = run(capsys, [*dump, "--dataset", str(original)])
        assert (code, err) == (0, "")
        expected = rates_halved(before)
        assert expected != before  # the dump holds non-zero rates
        assert run(capsys, [*dump, "--dataset", str(dilated)]) == (0, expected, "")


def network_shape(network):
    return [(node["id"], node["layer"]) for node in network["nodes"]], network["edges"]


# (root, ttl, n_f, k) of each by-influence network that dilating the root's
# window changes; every other comparison's totals double exactly.
CHANGED_NETWORKS = {1: [("acct-00126", 4, 40, 5)], 6: []}


@pytest.mark.parametrize("seed", [1, 6])
def test_dilating_the_root_window_doubles_totals(tmp_path, capsys, seed):
    original = tmp_path / "gen.jsonl"
    dataset = generate_synthetic(seed=seed, accounts=300, max_followers=40)
    save_dataset(dataset, original)
    # A root with no window scores 0 and so do its totals.
    roots = [i for i in sorted(dataset.accounts, key=lambda i: -len(dataset.accounts[i].follower_ids))
             if dataset.accounts[i].window is not None][:4]
    changed, totals = [], 0
    for root in roots:
        dilated = tmp_path / root / "gen.jsonl"
        dilated.parent.mkdir()
        dilated_copy(original, dilated, root)
        for ttl in (3, 4):
            argv = ["compare", "--root", root, "--nf", "20,40", "--k", "3,5", "--ttl", str(ttl),
                    "--format", "json", "--dump-networks"]
            code, before, err = run(capsys, [*argv, "--dataset", str(original)])
            assert (code, err) == (0, "")
            code, after, err = run(capsys, [*argv, "--dataset", str(dilated)])
            assert (code, err) == (0, "")
            for block, dilated_block in zip(json.loads(before)["results"], json.loads(after)["results"],
                                            strict=True):
                assert block["winner"] == dilated_block["winner"]
                for category in ("by_followers", "by_influence"):
                    result, dilated_result = block[category], dilated_block[category]
                    assert result["ttt"] > 0
                    totals += 1
                    network, dilated_network = block["networks"][category], dilated_block["networks"][category]
                    if network_shape(network) != network_shape(dilated_network):
                        assert category == "by_influence"  # by-followers ranking reads no rate
                        changed.append((root, ttl, block["followers_fetched"], block["top_k"]))
                        continue
                    assert dilated_result["path_count"] == result["path_count"]
                    assert dilated_result["ttt"] == 2 * result["ttt"]
                    # Only the root's own record changes: its tcr and influence halve.
                    root_node = network["nodes"][0]
                    network["nodes"][0] = {**root_node, "tcr": root_node["tcr"] / 2,
                                           "influence": root_node["influence"] / 2}
                    assert network == dilated_network
    assert totals == 32
    assert changed == CHANGED_NETWORKS[seed]
