"""Command-line front door: score accounts, compare networks, generate data.

Exit codes: 0 success, 1 usage error, 2 data error (parse failures,
unknown accounts, a tweet newer than --as-of, networks too large to
total, an unreadable dataset file or unwritable --out, output that
stdout's encoding cannot hold), 3 internal error. The default output
format comes from the INFLUENCE_TRACKER_FORMAT environment variable
(text, csv, or json); an explicit --format wins. A command runs with
the cyclic garbage collector paused, since it builds no reference cycles.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime

from .diffusion import compare_networks
from .errors import InfluenceTrackerError
from .reports import render_compare, render_score, score_rows
from .store import SnapshotDataset, _collector_paused, followers_of, generate_synthetic, load_dataset, parse_timestamp, save_dataset

FORMATS = ("text", "csv", "json")
FORMAT_ENV_VAR = "INFLUENCE_TRACKER_FORMAT"


class UsageError(Exception):
    """Bad command line or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}".rstrip())

    def format_usage(self):
        formatter = self._get_formatter()
        formatter.add_usage(self.usage, self._actions, self._mutually_exclusive_groups)
        usage = formatter.format_help()
        vars(formatter).clear()  # its sections refer back to it; emptied, it leaves no cyclic garbage
        return usage


def _load(args) -> tuple[SnapshotDataset, datetime]:
    """Parse --as-of, then load --dataset; the instant defaults to its capture time."""
    try:
        as_of = None if args.as_of is None else parse_timestamp(args.as_of)
    except ValueError:
        raise UsageError(f"cannot parse timestamp {args.as_of!r} (expected RFC 3339)") from None
    dataset = load_dataset(args.dataset)
    return dataset, as_of or dataset.captured_at


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects an integer or comma-separated integers, got {raw!r}") from None


def _resolve_format(explicit: str | None) -> str:
    fmt = explicit or os.environ.get(FORMAT_ENV_VAR, "text")
    if fmt not in FORMATS:
        raise UsageError(f"{FORMAT_ENV_VAR} must be one of {', '.join(FORMATS)}, got {fmt!r}")
    return fmt


def cmd_score(args) -> int:
    fmt = _resolve_format(args.format)
    dataset, as_of = _load(args)
    scored = score_rows(dataset, args.handles, as_of)
    for row, clamped in scored:
        if clamped:
            print(
                f"note: tweet window span of {row['handle']} clamped to one second",
                file=sys.stderr,
            )
    sys.stdout.write(render_score([row for row, _ in scored], fmt, dataset.dataset_id, as_of))
    return 0


def cmd_compare(args) -> int:
    fmt = _resolve_format(args.format)
    n_f_values = _parse_int_list(args.nf, "--nf")
    k_values = _parse_int_list(args.k, "--k")
    if len(n_f_values) == 1:
        n_f_values *= len(k_values)
    if len(k_values) == 1:
        k_values *= len(n_f_values)
    if len(n_f_values) != len(k_values):
        raise UsageError(
            f"--nf and --k must pair up, got {len(n_f_values)} and {len(k_values)} values"
        )
    configs = list(zip(n_f_values, k_values))
    for n_f, k in configs:
        if k < 1 or n_f < k:
            raise UsageError(f"need followers-fetched >= top-k >= 1, got n_f={n_f}, k={k}")
    if args.ttl < 1:
        raise UsageError(f"ttl must be >= 1, got {args.ttl}")

    dataset, as_of = _load(args)
    root = dataset.resolve(args.root)

    # With n_f >= k >= 1, both networks of every budget are empty exactly
    # when the root has no resolvable follower (it never follows itself).
    if not followers_of(dataset, root.account_id, 1):
        print(
            f"warning: root {root.handle} has no resolvable followers; "
            "both networks are empty",
            file=sys.stderr,
        )
    scores = {}  # one table for every budget: each account is scored once
    results = [
        (n_f, k, args.ttl, compare_networks(dataset, root.account_id, n_f, k, args.ttl, as_of, scores))
        for n_f, k in configs
    ]
    sys.stdout.write(render_compare(
        results, fmt, dataset.dataset_id, root.handle, as_of,
        dump_networks=args.dump_networks,
    ))
    return 0


def cmd_gen(args) -> int:
    try:
        dataset = generate_synthetic(args.seed, args.accounts, args.max_followers)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    save_dataset(dataset, args.out)
    stubs = sum(1 for a in dataset.accounts.values() if a.window is None)
    tweets = sum(a.window.window_size for a in dataset.accounts.values() if a.window is not None)
    print(f"wrote {args.out}: {len(dataset.accounts)} accounts ({stubs} stubs), {tweets} tweets")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="influence-tracker", description="Command-line front door: score accounts, compare networks, generate data.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    score = sub.add_parser("score", help="score accounts and print a ranked table")
    score.add_argument("--dataset", required=True, help="snapshot JSONL file")
    score.add_argument("--as-of", dest="as_of", help="evaluation instant (RFC 3339); defaults to the dataset capture time")
    score.add_argument("--format", choices=FORMATS, help="output format (default from env, else text)")
    score.add_argument("handles", nargs="*", metavar="HANDLE", help="handles or account ids to score")
    score.set_defaults(func=cmd_score)

    compare = sub.add_parser("compare", help="compare rival top-k networks rooted at one account")
    compare.add_argument("--dataset", required=True, help="snapshot JSONL file")
    compare.add_argument("--root", required=True, help="root handle or account id")
    compare.add_argument("--nf", default="50", help="followers fetched per node; comma list for batches (default 50)")
    compare.add_argument("--k", default="3", help="top-k selections per node; comma list for batches (default 3)")
    compare.add_argument("--ttl", type=int, default=3, help="layer budget (default 3)")
    compare.add_argument("--as-of", dest="as_of", help="evaluation instant (RFC 3339); defaults to the dataset capture time")
    compare.add_argument("--format", choices=FORMATS, help="output format (default from env, else text)")
    compare.add_argument("--dump-networks", action="store_true",
                         help="embed both network dumps in JSON output")
    compare.set_defaults(func=cmd_compare)

    gen = sub.add_parser("gen", help="write a deterministic synthetic dataset")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--accounts", type=int, required=True)
    gen.add_argument("--max-followers", dest="max_followers", type=int, required=True)
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.set_defaults(func=cmd_gen)

    return parser


# One parser per process: its objects form reference cycles, left as garbage if built per call.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError(_PARSER.format_usage().rstrip())
        with _collector_paused():  # a command builds no reference cycles
            return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (InfluenceTrackerError, OSError, UnicodeEncodeError) as exc:  # a write stdout cannot encode writes nothing
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant breakage; never expected
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
