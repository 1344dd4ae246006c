"""The process that runs one workload: a closed loop of in-process CLI calls.

    python3 perfbench/worker.py SPEC.json RESULT.json

One client, no threads: each ``influence_tracker.cli.main(argv)`` call
starts only after the previous one returned. The loop runs whole rounds
of the spec's operations, in order, for about ``seconds``. With
tracing on, each operation runs untraced and then traced, so one run
gives both the layer spans and the tracing overhead of the same calls.
Each call's stdout goes to a file for the parent to check; this process's peak resident memory is the
workload's. Untraced calls run under a host-speed sampler
(``calibrate.py``), which also gives each call's time at reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from influence_tracker import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"worker: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2

    import calibrate

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["lines"])
        main_span = tracer.name_id("cli.main")
    outdir = Path(spec["outdir"])
    ops = []
    start = time.perf_counter()
    # Whole rounds of every operation in turn, so that each run weighs
    # calls of different sizes alike. A new round starts only while it
    # would end nearer to ``seconds`` than stopping now would.
    calls_per_round = len(spec["ops"]) * (2 if tracer else 1)
    round_start = start
    while True:
        if ops and not len(ops) % calls_per_round:
            now = time.perf_counter()
            if now - start + (now - round_start) / 2 >= spec["seconds"]:
                break
            round_start = now
        call = len(ops) % calls_per_round
        index, traced = (call // 2, call % 2 == 1) if tracer else (call, False)
        out, err = io.StringIO(), io.StringIO()
        sampler = calibrate.Sampler()
        if traced:
            tracer.install()
            tracer.begin_op()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            span = tracer.open(main_span) if traced else None
            try:
                with contextlib.nullcontext() if tracer else sampler:
                    rc = cli.main(spec["ops"][index])
            finally:
                if traced:
                    tracer.close(span)
            wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        out_path = outdir / f"op-{len(ops):04d}.out"
        out_path.write_text(out.getvalue(), encoding="utf-8")
        ops.append({
            "index": index, "traced": traced, "wall_s": wall, "rc": rc,
            "scaled_s": None if tracer else sampler.scale(wall),
            "out": str(out_path), "stderr": err.getvalue()[-2000:],
        })

    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.per_op()
        result["counts"] = [dict(c) for c in tracer.counts]
        result["distinct_scored"] = [len(s) for s in tracer.scored]
        tracer.write(spec["spans"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
