"""Spans around the program's layer functions, installed from outside.

Each wrapper replaces a function at the name its caller looks it up by
(``cli.load_dataset``, not ``store.load_dataset``), so the program's own
files stay untouched. Spans go to flat arrays in memory; counts are taken
at the same boundaries. A layer's self time is its span minus the time of
its direct child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self, lines_by_path: dict[str, int]):
        self.lines_by_path = lines_by_path
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op = -1
        self.counts: list[Counter] = []
        self.scored: list[set] = []
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self) -> None:
        self.op += 1
        self.counts.append(Counter())
        self.scored.append(set())

    def open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_op.append(self.op)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_name.append(name_id)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self.counts[self.op], args, result)
            return result

        return traced

    # -- installing the wrappers -------------------------------------------

    def _replace(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  f"{name} reads 0", file=sys.stderr)
            return
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, after))
        else:
            replacement = self.wrap(name, original, after)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        from influence_tracker import cli, diffusion, models, network, reports, store

        def count_load(counts, args, result):
            counts["lines"] += self.lines_by_path[str(args[0])]

        def count_scored(counts, args, result):
            counts["influence_calls"] += 1
            self.scored[self.op].add(args[0].account_id)

        def count_network(counts, args, result):
            counts["nodes"] += sum(1 for n in result.nodes.values() if n.layer is not None)
            counts["edges"] += len(result.edges)

        def count_paths(counts, args, result):
            counts["paths"] += len(result)

        def count_bytes(counts, args, result):
            counts["output_bytes"] += len(result.encode("utf-8"))

        patches = [
            (cli, "load_dataset", "store.load_dataset", count_load),
            (cli, "score_rows", "reports.score_rows", None),
            (cli, "compare_networks", "diffusion.compare_networks", None),
            (cli, "render_score", "reports.render", count_bytes),
            (cli, "render_compare", "reports.render", count_bytes),
            (store.SnapshotDataset, "resolve", "store.resolve", None),
            (models.TweetWindow, "from_tweets", "models.window_build", None),
            (reports, "influence_metric", "metrics.influence_metric", count_scored),
            (reports, "h_index_report", "metrics.h_index_report", None),
            (network, "influence_metric", "metrics.influence_metric", count_scored),
            (network, "followers_of", "store.followers_of", None),
            (network, "rank_followers", "network.rank_followers", None),
            (diffusion, "build_network", "network.build_network", count_network),
            (diffusion, "enumerate_paths", "diffusion.enumerate_paths", count_paths),
        ]
        for owner, attr, name, after in patches:
            self._replace(owner, attr, name, after)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reading the spans back --------------------------------------------

    def per_op(self) -> list[dict[str, tuple[float, float, int]]]:
        """For each op, name -> (inclusive seconds, self seconds, calls)."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(duration)
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                own[parent] -= duration[i]
        ops: list[dict[str, list]] = [{} for _ in range(self.op + 1)]
        for i in range(n):
            entry = ops[self.span_op[i]].setdefault(self.names[self.span_name[i]], [0.0, 0.0, 0])
            entry[0] += duration[i]
            entry[1] += own[i]
            entry[2] += 1
        return [{name: tuple(v) for name, v in op.items()} for op in ops]

    def write(self, path) -> None:
        """One line per span: op, parent span, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_op[i]}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n")
