"""Benchmark of `score` and `compare`, end to end and layer by layer.

    python3 perfbench/run.py --workload score-many --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The run makes the workload's inputs from
the seed (several times, timed as set-up), computes the expected outputs
with ``oracle``, runs the closed loop in one worker process
(``worker.py``), checks every output, and prints one JSON line: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
ones. Inputs, outputs and spans go to ``.perfbench-work/<workload>/``.

Every end-to-end time is taken under a host-speed sampler
(``calibrate.py``) and reported at the reference host speed, so that the
figures follow the program and not the shared host's load; the raw wall
times go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Python salts string hashes per process, and the program's call times
# move by about 15% with the salt, through its dict and set layouts. One
# fixed salt, for set-up and worker alike, keeps that out of the figures;
# the exec replaces this process before anything is measured.
HASH_SEED = "0"
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": HASH_SEED})

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402

# Set-up is timed SETUP_REPEATS times. A quick set-up is made several times
# over in one timing, until the timing reaches SETUP_MIN_S, and counts as
# the mean of those.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.3
# Every run must end within 180 seconds; the worker gets what set-up leaves.
RUN_DEADLINE_S = 160.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_wall_s": "s",
    "accounts_scored_per_s": "1/s",
    "comparisons_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "store.load_dataset.self_s": "s",
    "store.load_dataset.lines_per_s": "1/s",
    "models.window_build.s": "s",
    "models.window_build.calls": "count",
    "store.resolve.s": "s",
    "store.resolve.calls": "count",
    "metrics.influence_metric.calls": "count",
    "metrics.influence_metric.s": "s",
    "metrics.influence_metric.distinct_ratio": "ratio",
    "metrics.h_index_report.s": "s",
    "network.build_network.self_s": "s",
    "network.rank_followers.s": "s",
    "network.rank_followers.calls": "count",
    "store.followers_of.s": "s",
    "store.followers_of.calls": "count",
    "network.nodes": "count",
    "network.edges": "count",
    "diffusion.enumerate_paths.s": "s",
    "diffusion.paths": "count",
    "diffusion.compare_networks.self_s": "s",
    "reports.score_rows.self_s": "s",
    "reports.render.s": "s",
    "reports.output_bytes": "B",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _expected_networks(ref: oracle.Reference, op: dict) -> list[dict]:
    """Both rebuilt networks of each (n_f, k) block of a compare operation."""
    return [
        {category: oracle.build_network(ref, op["root"], n_f, k, op["ttl"], category)
         for category in oracle.CATEGORIES}
        for n_f, k in op.get("configs", ())
    ]


def _work_units(op: dict, networks: list[dict]) -> tuple[int, int]:
    """(accounts scored, report blocks) that one operation produces.

    For `compare` the accounts scored are the network nodes, sink left
    out, over both networks of every block; a `score` call is one block.
    """
    if "handles" in op:
        return len(op["handles"]), 1
    nodes = sum(len(net.layers) for block in networks for net in block.values())
    return nodes, len(networks)


# A per-layer metric named <span>.s, <span>.self_s or <span>.calls reads
# that field of the span's (inclusive s, self s, calls); these read counts.
_SPAN_FIELDS = {"s": 0, "self_s": 1, "calls": 2}
_COUNTED = {"network.nodes": "nodes", "network.edges": "edges",
            "diffusion.paths": "paths", "reports.output_bytes": "output_bytes"}


def _layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer values of one operation, median over the traced operations."""
    per_op = []
    for layers, counts, distinct in zip(result["layers"], result["counts"], result["distinct_scored"]):
        def span(name, field):
            return layers.get(name, (0.0, 0.0, 0))[field]

        values = {}
        for metric in PER_LAYER_UNITS:
            name, _, field = metric.rpartition(".")
            if field in _SPAN_FIELDS:
                values[metric] = span(name, _SPAN_FIELDS[field])
            elif metric in _COUNTED:
                values[metric] = counts.get(_COUNTED[metric], 0)
        load_s = span("store.load_dataset", 0)
        calls = span("metrics.influence_metric", 2)
        values["store.load_dataset.lines_per_s"] = counts.get("lines", 0) / load_s if load_s else 0.0
        values["metrics.influence_metric.distinct_ratio"] = distinct / calls if calls else 0.0
        per_op.append(values)
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    # The worker runs each operation untraced, then traced.
    calls = result["ops"]
    metrics["trace.overhead_s"] = statistics.median(
        traced["wall_s"] - untraced["wall_s"] for untraced, traced in zip(calls[::2], calls[1::2]))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "influence_tracker" / "cli.py").is_file():
        return _fail(f"no program source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import influence_tracker

    if not Path(influence_tracker.__file__).resolve().is_relative_to(SRC.resolve()):
        return _fail(f"imported {influence_tracker.__file__}, not the checkout's program")

    work = CHECKOUT / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    data_dir, out_dir = work / "inputs", work / "outputs"
    out_dir.mkdir(parents=True)

    make = inputs.WORKLOADS[args.workload]
    setup_times, setup_scaled = [], []
    while len(setup_times) < SETUP_REPEATS:
        made, timed, sampler = 0, 0.0, calibrate.Sampler()
        while timed < SETUP_MIN_S:
            shutil.rmtree(data_dir, ignore_errors=True)
            data_dir.mkdir()
            with sampler:
                t0 = time.perf_counter()
                dataset, ops = make(args.seed, data_dir)
                timed += time.perf_counter() - t0
            made += 1
        setup_times.append(timed / made)
        setup_scaled.append(sampler.scale(timed) / made)

    ref = oracle.reference(dataset)
    networks = [_expected_networks(ref, op) for op in ops]
    with dataset.open(encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)

    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps({
        "src": str(SRC),
        "ops": [op["argv"] for op in ops],
        "seconds": args.seconds,
        "trace": args.trace,
        "outdir": str(out_dir),
        "lines": {str(dataset): lines},
        "spans": str(work / "spans.tsv"),
    }), encoding="utf-8")
    budget = RUN_DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path), str(result_path)],
            stdout=sys.stderr, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        return _fail(f"worker did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        return _fail(f"worker exited with {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))

    check = checks.CHECKS[args.workload]
    failed, faults = 0, []
    scored = blocks = 0
    for n, op_result in enumerate(result["ops"]):
        op, expected = ops[op_result["index"]], networks[op_result["index"]]
        out_path = Path(op_result["out"])
        if op_result["rc"] != 0:
            failed += 1
            print(f"perfbench: op {n} exited {op_result['rc']}: {op_result['stderr']}",
                  file=sys.stderr)
        else:
            payload = json.loads(out_path.read_text(encoding="utf-8"))
            faults += [f"op {n}: {f}" for f in check(payload, op, expected, ref)]
        out_path.unlink()
        units = _work_units(op, expected)
        scored += units[0]
        blocks += units[1]
    for fault in faults[:20]:
        print(f"perfbench: {fault}", file=sys.stderr)

    walls = [op["wall_s"] for op in result["ops"]]
    print(f"perfbench: raw wall: set-up median {statistics.median(setup_times):.4f} s, "
          f"call mean {statistics.fmean(walls):.4f} s over {len(walls)} calls", file=sys.stderr)
    if args.trace:
        metrics = _layer_metrics(result)
    else:
        # A mean over whole rounds, not a median: the operations of a
        # round differ in size, and single calls swing by a third on a
        # shared machine, so a median of a few calls moves more between runs.
        busy = sum(op["scaled_s"] for op in result["ops"])
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "op_wall_s": busy / len(result["ops"]),
            "accounts_scored_per_s": scored / busy,
            "comparisons_per_s": blocks / busy,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not faults,
        "attempted": len(result["ops"]),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
