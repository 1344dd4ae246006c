"""Order-preserving id relabeling: a symmetry of the model.

Ties between accounts break by ascending id, and nothing else reads an id's
text. So rewriting every id of a snapshot through a strictly increasing map
must leave `score` and `compare` output the same up to that map. `gen` ids
all have one length, so appending one fixed character to each keeps their
order.
"""

import json
import re

import pytest

from influence_tracker import generate_synthetic, save_dataset

from test_cli import run

SUFFIX = "~"
# One JSON string token: a quote, escapes or any other characters, a quote.
JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def relabeled_copy(path, out):
    """Write ``path`` to ``out`` with every account, follower, author and
    tweet id suffixed; return the map from old id to new."""
    mapping = {}

    def new(old):
        return mapping.setdefault(old, old + SUFFIX)

    with path.open(encoding="utf-8") as src, out.open("w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            record["id"] = new(record["id"])
            if record["kind"] == "account":
                record["follower_ids"] = [new(i) for i in record["follower_ids"]]
            else:
                record["author_id"] = new(record["author_id"])
            dst.write(json.dumps(record, separators=(",", ":")) + "\n")
    assert [mapping[i] for i in sorted(mapping)] == sorted(mapping.values())
    return mapping


def relabeled_text(text, mapping):
    """``text`` with every JSON string token whose value is an old id
    spelled as its new id."""
    def swap(match):
        value = json.loads(match.group())
        return json.dumps(mapping[value]) if value in mapping else match.group()
    return JSON_STRING.sub(swap, text)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_outputs_follow_an_order_preserving_relabeling(tmp_path, capsys, seed):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    original, relabeled = tmp_path / "a" / "gen.jsonl", tmp_path / "b" / "gen.jsonl"
    dataset = generate_synthetic(seed=seed, accounts=300, max_followers=40)
    save_dataset(dataset, original)
    mapping = relabeled_copy(original, relabeled)
    ids = sorted(dataset.accounts)
    roots = sorted(ids, key=lambda i: -len(dataset.accounts[i].follower_ids))[:2]

    calls = [["score", "--format", "json", *ids[::7]]]
    calls += [["compare", "--format", "json", "--dump-networks", "--root", root,
               "--nf", "20,40", "--k", "3,5", "--ttl", ttl] for root, ttl in zip(roots, ("3", "4"))]
    for argv in calls:
        before = run(capsys, [*argv, "--dataset", str(original)])
        after = run(capsys, [*[mapping.get(arg, arg) for arg in argv], "--dataset", str(relabeled)])
        assert before[0] == after[0] == 0
        expected = relabeled_text(before[1], mapping)
        assert expected != before[1]  # the output names ids
        assert expected == after[1]
        assert before[2] == after[2]
