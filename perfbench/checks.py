"""Checks of the program's outputs against the reference in ``oracle``.

Each ``check_*`` function returns a list of faults; an empty list means
the output is right. Per-account values must match to relative 1e-9.
Network totals are compared with the same tolerance, since a different
summation order moves only the last digits.
"""

from __future__ import annotations

import math

import oracle

REL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def check_score(payload: dict, op: dict, networks, ref: oracle.Reference) -> list[str]:
    """Rows equal the reference's scores of the accounts the handles name,
    in the defined order."""
    faults = []
    handles = op["handles"]
    if (payload.get("command"), payload.get("dataset_id"), payload.get("as_of")) != (
        "score", ref.dataset_id, ref.as_of.isoformat()
    ):
        faults.append("score header does not name the command, dataset and instant")
    rows = payload.get("rows", [])
    if len(rows) != len(handles):
        return faults + [f"{len(rows)} rows for {len(handles)} handles"]
    wanted = sorted(oracle.resolve(ref, h).account_id for h in handles)
    if sorted(r["account_id"] for r in rows) != wanted:
        return faults + ["rows are not the accounts the handles name"]
    for row in rows:
        account = ref.accounts[row["account_id"]]
        expect = ref.table[account.account_id]
        exact = {
            "handle": account.handle,
            "captured_at": account.captured_at.isoformat(),
            "followers": account.followers,
            "following": account.following,
            "retweet_h_last100": expect.retweet_h,
            "favorite_h_last100": expect.favorite_h,
        }
        approx = {
            "influence": expect.influence,
            "tcr": expect.tcr,
            "retweet_h_daily": expect.retweet_h_daily,
            "favorite_h_daily": expect.favorite_h_daily,
        }
        for key, value in exact.items():
            if row[key] != value:
                faults.append(f"{account.account_id} {key}: {row[key]!r} != {value!r}")
        for key, value in approx.items():
            if not _close(row[key], value):
                faults.append(f"{account.account_id} {key}: {row[key]!r} != {value!r}")
    for a, b in zip(rows, rows[1:]):
        ia, ib = ref.table[a["account_id"]].influence, ref.table[b["account_id"]].influence
        if _close(ia, ib):
            # Equal up to rounding: the program's own values decide, then the handle.
            in_order = (a["influence"], b["handle"]) > (b["influence"], a["handle"])
        else:
            in_order = ia > ib
        if not in_order:
            faults.append(f"rows {a['handle']} and {b['handle']} are out of order")
    return faults


def _check_dump(dump: dict, expect: oracle.Network, category: str, ref: oracle.Reference) -> list[str]:
    faults = []
    if (dump["root"], dump["category"], dump["ttl"], dump["sink_id"]) != (
        expect.root, category, expect.ttl, expect.sink
    ):
        faults.append(f"{category}: network header differs")
    layers = {n["id"]: n["layer"] for n in dump["nodes"]}
    if layers != {**expect.layers, expect.sink: None}:
        faults.append(f"{category}: nodes or layers differ "
                      f"({len(layers)} dumped, {len(expect.layers) + 1} expected)")
        return faults
    for node in dump["nodes"]:
        if node["id"] == expect.sink:
            rates = (0.0, 0.0, 0.0, 0)
        else:
            r = ref.table[node["id"]]
            rates = (r.tcr, r.retweet_prob, r.influence, ref.accounts[node["id"]].followers)
        got = (node["tcr"], node["retweet_prob"], node["influence"], node["followers_count"])
        if not all(_close(g, w) for g, w in zip(got[:3], rates[:3])) or got[3] != rates[3]:
            faults.append(f"{category}: rates of {node['id']} differ: {got} != {rates}")
    edges = {(e["from"], e["to"]) for e in dump["edges"]}
    if edges != expect.edges or len(edges) != len(dump["edges"]):
        faults.append(f"{category}: edges differ ({len(dump['edges'])} dumped, "
                      f"{len(expect.edges)} expected)")
    return faults


def _check_totals(block: dict, expected: dict[str, tuple[int, float]]) -> list[str]:
    faults = []
    for category in oracle.CATEGORIES:
        paths, total = expected[category]
        got = block[category]
        if got["path_count"] != paths:
            faults.append(f"{category}: {got['path_count']} paths, expected {paths}")
        if not _close(got["ttt"], total):
            faults.append(f"{category}: total {got['ttt']!r}, expected {total!r}")
    inf, fol = expected["by_influence"][1], expected["by_followers"][1]
    if not math.isclose(block["difference"], inf - fol, rel_tol=REL,
                        abs_tol=REL * max(abs(inf), abs(fol)) + 1e-12):
        faults.append(f"difference {block['difference']!r}, expected {inf - fol!r}")
    # A gap within rounding of the tie threshold may fall either way.
    if abs(inf - fol) > oracle.TIE_TOLERANCE + 2 * REL * max(abs(inf), abs(fol)):
        if block["winner"] != oracle.winner(inf, fol):
            faults.append(f"winner {block['winner']!r}, expected {oracle.winner(inf, fol)!r}")
    return faults


def _header_faults(payload, op, ref: oracle.Reference) -> list[str]:
    root_handle = ref.accounts[op["root"]].handle
    if (payload.get("command"), payload.get("dataset_id"), payload.get("root"), payload.get("as_of")) != (
        "compare", ref.dataset_id, root_handle, ref.as_of.isoformat()
    ):
        return ["compare header does not name the command, dataset, root and instant"]
    results = payload.get("results", [])
    got = [(b["followers_fetched"], b["top_k"], b["ttl"]) for b in results]
    if got != [(n_f, k, op["ttl"]) for n_f, k in op["configs"]]:
        return [f"blocks {got} do not match the requested budgets"]
    return []


def check_sweep(payload: dict, op: dict, networks: list[dict], ref: oracle.Reference) -> list[str]:
    """Dumped networks equal the rebuilt ones; a forward pass over each
    dump gives the reported path counts and totals."""
    faults = _header_faults(payload, op, ref)
    if faults:
        return faults
    for block, expect in zip(payload["results"], networks):
        totals = {}
        for category in oracle.CATEGORIES:
            dump = block["networks"][category]
            faults += _check_dump(dump, expect[category], category, ref)
            layers = {n["id"]: n["layer"] for n in dump["nodes"]}
            rates = {n["id"]: (n["tcr"], n["retweet_prob"]) for n in dump["nodes"]}
            edges = [(e["from"], e["to"]) for e in dump["edges"]]
            totals[category] = oracle.forward_pass(
                layers, edges, rates, dump["root"], dump["sink_id"], dump["ttl"])
        faults += _check_totals(block, totals)
    return faults


def check_dense(payload: dict, op: dict, networks: list[dict], ref: oracle.Reference) -> list[str]:
    """Exactly k**ttl paths per network, and the closed-form total."""
    faults = _header_faults(payload, op, ref)
    if faults:
        return faults
    ttl = op["ttl"]
    for block, expect, (_, k) in zip(payload["results"], networks, op["configs"]):
        totals = {}
        for category in oracle.CATEGORIES:
            net = expect[category]
            chosen = [[a for a, d in net.layers.items() if d == depth] for depth in range(1, ttl + 1)]
            if [len(layer) for layer in chosen] != [k] * ttl:
                raise ValueError(f"dense input does not give {k} accounts per layer")
            paths, total = oracle.dense_closed_form(
                ref.table[op["root"]].tcr,
                [[(ref.table[a].tcr, ref.table[a].retweet_prob) for a in layer] for layer in chosen],
            )
            totals[category] = (paths, total)
            if paths != k ** ttl:
                raise ValueError("closed form disagrees with k**ttl")
        faults += _check_totals(block, totals)
    return faults


CHECKS = {"score-many": check_score, "compare-sweep": check_sweep, "compare-dense": check_dense}
