"""In-memory span recorder for the traced run, and the layer figures it gives.

A span is [name, start_ns, end_ns, parent index, op id]. Spans stay in a list
while the run lasts and are written out once at the end. A span's self time
is its duration minus the durations of its direct children.
"""

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

_NO_SPAN = nullcontext()


def no_span(name):
    """The span hook of an untraced op: records nothing."""
    return _NO_SPAN


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._open = []

    @contextmanager
    def span(self, name):
        record = [name, perf_counter_ns(), None, self._open[-1] if self._open else None, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = perf_counter_ns()

    def self_times(self):
        """{op id: {span name: self time in ns}}, summed over same-named spans."""
        children = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        per_op = defaultdict(lambda: defaultdict(int))
        for (name, start, end, _, op), child in zip(self.spans, children):
            per_op[op][name] += end - start - child
        return per_op

    def layer_table(self, root="op"):
        """Per span name: span count, total self ms, share of total op time."""
        totals = defaultdict(int)
        counts = defaultdict(int)
        op_total = 0
        for name, start, end, _, _ in self.spans:
            counts[name] += 1
            if name == root:
                op_total += end - start
        for times in self.self_times().values():
            for name, ns in times.items():
                totals[name] += ns
        return {
            name: {
                "count": counts[name],
                "self_ms": totals[name] / 1e6,
                "share": totals[name] / op_total if op_total else 0.0,
            }
            for name in sorted(counts)
        }

    def write(self, path, meta):
        with open(path, "w") as handle:
            json.dump({**meta, "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, handle)
            handle.write("\n")
