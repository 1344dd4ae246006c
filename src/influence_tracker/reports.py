"""Rendering of score and comparison reports as text, CSV, or JSON.

Each report is built once as JSON-ready rows. JSON prints them in exactly
``json.dumps(indent=2)`` layout: each list of flat records (score rows) goes
through one C-encoder call, and each dumped network is written straight from
its nodes and edges, one f-string per node and one join per edge source. CSV
and text print the same values through one table writer, which formats each
cell by its type: a float gets three decimal places, text adds thousands
separators to floats and ints, and a string prints unchanged.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from datetime import datetime
from json.encoder import encode_basestring_ascii
from math import isfinite

from .diffusion import ComparisonResult
from .metrics import EPSILON_DAYS, h_index_report, influence_metric
from .network import LayeredNetwork
from .store import SnapshotDataset

SCORE_COLUMNS = (
    "handle", "captured_at", "influence", "tcr", "followers", "following",
    "retweet_h_last100", "favorite_h_last100", "retweet_h_daily", "favorite_h_daily",
)

COMPARE_COLUMNS = (
    "user", "by_influence", "by_followers", "difference", "winner",
    "paths_by_influence", "paths_by_followers",
)


def _key(key) -> str:
    """A dict key as ``json.dumps`` writes it: an int, float, bool or None key
    is quoted as JSON spells the value; any other non-str key is a TypeError."""
    return json.dumps({key: 0})[1:-4]  # '{' + key + ': 0}'


def _scalar(value) -> str:
    """``json.dumps(value)``, without the encoder call for an exact str, int or finite float."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _dump_network(network: LayeredNetwork, pad: str) -> str:
    """The network's JSON dump in ``json.dumps(indent=2)`` layout, each line
    after the first starting with ``pad``: root, category, ttl and sink_id;
    the nodes by (layer, id), then the sink's record; then every edge
    sorted, with an edge into the sink from each layer-ttl node.

    Edges are grouped by source, and the sources and each source's
    destinations are sorted: the order of ``sorted(pairs)``, as node ids are
    str (see ``LayeredNetwork``). Each id is encoded once.
    """
    keys, records = pad + "  ", pad + "    "
    fields = records + "  "
    nodes = network.sorted_nodes()
    sink_id = network.sink_id
    groups = defaultdict(list)
    for src, dst in network.edges:
        groups[src].append(dst)
    for node in nodes:
        if node.layer == network.ttl:
            groups[node.account_id].append(sink_id)
    names = {i: _scalar(i) for i in set().union((n.account_id for n in nodes), groups, *groups.values())}
    node_records = [
        f'{records}{{{fields}"id": {names[n.account_id]},{fields}"layer": {_scalar(n.layer)},'
        f'{fields}"tcr": {_scalar(n.tcr)},{fields}"retweet_prob": {_scalar(n.retweet_prob)},'
        f'{fields}"influence": {_scalar(n.influence)},'
        f'{fields}"followers_count": {_scalar(n.followers_count)}{records}}}'
        for n in nodes
    ]
    node_records.append(
        f'{records}{{{fields}"id": {_scalar(sink_id)},{fields}"layer": null,{fields}"tcr": 0.0,'
        f'{fields}"retweet_prob": 0.0,{fields}"influence": 0.0,{fields}"followers_count": 0{records}}}'
    )
    edge_groups, tail = [], records + "}"
    for src in sorted(groups):
        head = f'{records}{{{fields}"from": {names[src]},{fields}"to": '
        edge_groups.append(head + (tail + "," + head).join([names[dst] for dst in sorted(groups[src])]) + tail)
    edges = "[" + ",".join(edge_groups) + keys + "]" if edge_groups else "[]"
    return (
        f'{{{keys}"root": {_scalar(network.root)},{keys}"category": {_scalar(network.category.value)},'
        f'{keys}"ttl": {_scalar(network.ttl)},{keys}"sink_id": {_scalar(sink_id)},'
        f'{keys}"nodes": [{",".join(node_records)}{keys}],{keys}"edges": {edges}{pad}}}'
    )


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, with a ``LayeredNetwork`` written by
    ``_dump_network`` and each list of flat records in one C-encoder call."""
    if isinstance(value, LayeredNetwork):
        return _dump_network(value, pad)
    inner = pad + "  "
    if isinstance(value, dict) and value:
        return "{" + ",".join(f"{inner}{_key(k)}: {_dumps(v, inner)}" for k, v in value.items()) + pad + "}"
    if not isinstance(value, (list, tuple)) or not value:
        return json.dumps(value)
    if {*map(type, value)} != {dict} or not all(value) or not {
            type(v) for r in value for v in r.values()} <= {str, int, float, bool, type(None)}:
        return "[" + ",".join(inner + _dumps(v, inner) for v in value) + pad + "]"
    # ensure_ascii leaves no newline in a string, so "}" + separator + "{" only joins records.
    keys = inner + "  "
    records = json.JSONEncoder(separators=("," + keys, ": ")).encode(value)[2:-2]
    records = records.replace("}," + keys + "{", inner + "}," + inner + "{" + keys)
    return "[" + inner + "{" + keys + records + inner + "}" + pad + "]"


def score_rows(
    dataset: SnapshotDataset, handles: list[str], as_of: datetime
) -> list[tuple[dict, bool]]:
    """One (JSON row, window span clamped) pair per handle, sorted by
    influence descending then handle.

    Stub accounts score zero across the board. Raises UnknownAccount for
    a handle that does not resolve.
    """
    rows = []
    for handle in handles:
        account = dataset.resolve(handle)
        score = influence_metric(account, as_of)
        h_report = h_index_report(account.window, as_of) if account.window is not None else None
        row = {
            "handle": account.handle,
            "account_id": account.account_id,
            "captured_at": account.captured_at.isoformat(),
            "influence": score.value,
            "tcr": score.tcr,
            "followers": account.followers_count,
            "following": account.following_count,
            "retweet_h_last100": h_report.retweet_h_last100 if h_report else 0,
            "favorite_h_last100": h_report.favorite_h_last100 if h_report else 0,
            "retweet_h_daily": h_report.retweet_h_daily if h_report else 0.0,
            "favorite_h_daily": h_report.favorite_h_daily if h_report else 0.0,
        }
        rows.append((row, h_report is not None and h_report.span_days <= EPSILON_DAYS))
    rows.sort(key=lambda pair: (-pair[0]["influence"], pair[0]["handle"]))
    return rows


def _table(fmt: str, headers: tuple[str, ...], rows: list[list]) -> str:
    """CSV rows, or a text table padded to its widest cell per column."""
    sep = "," if fmt == "text" else ""
    cells = [
        [
            f"{v:{sep}.3f}" if isinstance(v, float) else f"{v:{sep}d}" if isinstance(v, int) else v
            for v in row
        ]
        for row in rows
    ]
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows([headers, *cells])
        return buffer.getvalue()
    widths = [max(map(len, column)) for column in zip(headers, *cells)]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
        for line in [headers, *cells]
    )


def render_score(rows: list[dict], fmt: str, dataset_id: str, as_of: datetime) -> str:
    if fmt == "json":
        payload = {
            "command": "score",
            "dataset_id": dataset_id,
            "as_of": as_of.isoformat(),
            "rows": rows,
        }
        return _dumps(payload) + "\n"
    return _table(fmt, SCORE_COLUMNS, [[row[c] for c in SCORE_COLUMNS] for row in rows])


def _winner_label(result: ComparisonResult) -> str:
    return result.winner.value if result.winner is not None else "tie"


def render_compare(
    results: list[tuple[int, int, int, ComparisonResult]],
    fmt: str,
    dataset_id: str,
    root_handle: str,
    as_of: datetime,
    dump_networks: bool,
) -> str:
    """Render (n_f, k, ttl, result) blocks; one block per budget config."""
    if fmt == "json":
        blocks = []
        for n_f, k, ttl, result in results:
            block = {
                "followers_fetched": n_f,
                "top_k": k,
                "ttl": ttl,
            }
            for category, ttt in result.ttt.items():
                block[category.value] = {
                    "ttt": ttt,
                    "path_count": result.paths[category],
                }
            block["difference"] = result.difference
            block["winner"] = _winner_label(result)
            if dump_networks:
                block["networks"] = {c.value: n for c, n in result.networks.items()}
            blocks.append(block)
        payload = {
            "command": "compare",
            "dataset_id": dataset_id,
            "root": root_handle,
            "as_of": as_of.isoformat(),
            "results": blocks,
        }
        return _dumps(payload) + "\n"
    rows = [
        [
            n_f, k, ttl, root_handle,
            *result.ttt.values(),
            result.difference, _winner_label(result),
            # Path counts as strings: text prints them without thousands separators.
            *map(str, result.paths.values()),
        ]
        for n_f, k, ttl, result in results
    ]
    if fmt == "csv":
        return _table(fmt, ("followers_fetched", "top_k", "ttl") + COMPARE_COLUMNS, rows)
    return "\n".join(
        f"Followers = {row[0]}, top-k users = {row[1]}, TTL = {row[2]}\n"
        + _table(fmt, COMPARE_COLUMNS, [row[3:]])
        for row in rows
    )
