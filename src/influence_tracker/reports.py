"""Rendering of score and comparison reports as text, CSV, or JSON.

Numeric formatting is fixed so diffs stay meaningful: text and CSV print
three decimal places (text adds thousands separators), JSON carries full
float precision.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime

from .diffusion import ComparisonResult
from .metrics import EPSILON_DAYS, h_index_report, influence_metric
from .store import SnapshotDataset

SCORE_COLUMNS = (
    "handle", "captured_at", "influence", "tcr", "followers", "following",
    "retweet_h_last100", "favorite_h_last100", "retweet_h_daily", "favorite_h_daily",
)

COMPARE_COLUMNS = (
    "user", "by_influence", "by_followers", "difference", "winner",
    "paths_by_influence", "paths_by_followers",
)


@dataclass(frozen=True)
class ScoreRow:
    handle: str
    account_id: str
    captured_at: datetime
    influence: float
    tcr: float
    followers: int
    following: int
    retweet_h_last100: int
    favorite_h_last100: int
    retweet_h_daily: float
    favorite_h_daily: float
    span_clamped: bool


def score_rows(dataset: SnapshotDataset, handles: list[str], as_of: datetime) -> list[ScoreRow]:
    """One row per handle, sorted by influence descending then handle.

    Stub accounts score zero across the board. Raises UnknownAccount for
    a handle that does not resolve.
    """
    rows = []
    for handle in handles:
        account = dataset.resolve(handle)
        window = dataset.windows.get(account.account_id)
        score = influence_metric(account, window, as_of)
        if window is not None:
            h_report = h_index_report(window, as_of)
            clamped = h_report.span_days <= EPSILON_DAYS
        else:
            h_report = None
            clamped = False
        rows.append(ScoreRow(
            handle=account.handle,
            account_id=account.account_id,
            captured_at=account.captured_at,
            influence=score.value,
            tcr=score.tcr,
            followers=account.followers_count,
            following=account.following_count,
            retweet_h_last100=h_report.retweet_h_last100 if h_report else 0,
            favorite_h_last100=h_report.favorite_h_last100 if h_report else 0,
            retweet_h_daily=h_report.retweet_h_daily if h_report else 0.0,
            favorite_h_daily=h_report.favorite_h_daily if h_report else 0.0,
            span_clamped=clamped,
        ))
    rows.sort(key=lambda r: (-r.influence, r.handle))
    return rows


def _text_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _tf(value: float) -> str:
    """Text float: three decimals, thousands separators."""
    return f"{value:,.3f}"


def _cf(value: float) -> str:
    """CSV float: three decimals, no separators."""
    return f"{value:.3f}"


def render_score(rows: list[ScoreRow], fmt: str, dataset_id: str, as_of: datetime) -> str:
    if fmt == "json":
        payload = {
            "command": "score",
            "dataset_id": dataset_id,
            "as_of": as_of.isoformat(),
            "rows": [
                {
                    "handle": r.handle,
                    "account_id": r.account_id,
                    "captured_at": r.captured_at.isoformat(),
                    "influence": r.influence,
                    "tcr": r.tcr,
                    "followers": r.followers,
                    "following": r.following,
                    "retweet_h_last100": r.retweet_h_last100,
                    "favorite_h_last100": r.favorite_h_last100,
                    "retweet_h_daily": r.retweet_h_daily,
                    "favorite_h_daily": r.favorite_h_daily,
                }
                for r in rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(SCORE_COLUMNS)
        for r in rows:
            writer.writerow([
                r.handle, r.captured_at.isoformat(), _cf(r.influence), _cf(r.tcr),
                r.followers, r.following, r.retweet_h_last100, r.favorite_h_last100,
                _cf(r.retweet_h_daily), _cf(r.favorite_h_daily),
            ])
        return buffer.getvalue()
    cells = [
        [
            r.handle, r.captured_at.isoformat(), _tf(r.influence), _tf(r.tcr),
            f"{r.followers:,}", f"{r.following:,}", str(r.retweet_h_last100),
            str(r.favorite_h_last100), _tf(r.retweet_h_daily), _tf(r.favorite_h_daily),
        ]
        for r in rows
    ]
    return _text_table(list(SCORE_COLUMNS), cells)


def _winner_label(result: ComparisonResult) -> str:
    return result.winner.value if result.winner is not None else "tie"


def render_compare(
    results: list[tuple[int, int, int, ComparisonResult]],
    fmt: str,
    dataset_id: str,
    root_handle: str,
    as_of: datetime,
    dump_networks: bool = False,
) -> str:
    """Render (n_f, k, ttl, result) blocks; one block per budget config."""
    if fmt == "json":
        blocks = []
        for n_f, k, ttl, result in results:
            block = {
                "followers_fetched": n_f,
                "top_k": k,
                "ttl": ttl,
                "by_influence": {
                    "ttt": result.by_influence_ttt,
                    "path_count": result.by_influence_paths,
                },
                "by_followers": {
                    "ttt": result.by_followers_ttt,
                    "path_count": result.by_followers_paths,
                },
                "difference": result.difference,
                "winner": _winner_label(result),
            }
            if dump_networks:
                block["networks"] = {
                    "by_influence": result.by_influence_network.to_dict(),
                    "by_followers": result.by_followers_network.to_dict(),
                }
            blocks.append(block)
        payload = {
            "command": "compare",
            "dataset_id": dataset_id,
            "root": root_handle,
            "as_of": as_of.isoformat(),
            "results": blocks,
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(("followers_fetched", "top_k", "ttl") + COMPARE_COLUMNS)
        for n_f, k, ttl, result in results:
            writer.writerow([
                n_f, k, ttl, root_handle,
                _cf(result.by_influence_ttt), _cf(result.by_followers_ttt),
                _cf(result.difference), _winner_label(result),
                result.by_influence_paths,
                result.by_followers_paths,
            ])
        return buffer.getvalue()
    blocks = []
    for n_f, k, ttl, result in results:
        header = f"Followers = {n_f}, top-k users = {k}, TTL = {ttl}"
        row = [
            root_handle, _tf(result.by_influence_ttt), _tf(result.by_followers_ttt),
            _tf(result.difference), _winner_label(result),
            str(result.by_influence_paths),
            str(result.by_followers_paths),
        ]
        blocks.append(header + "\n" + _text_table(list(COMPARE_COLUMNS), [row]))
    return "\n".join(blocks)
