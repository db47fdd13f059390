"""Outside-in span tracing of the dsba layers.

Wrappers are installed on the attributes where callers look functions up
(module globals such as ``dsba.simulator.dsba_node_step`` and class
attributes such as ``ObserverMemory.advance``), so nothing inside the package
changes. Every wrapper records one span (name, start, end, parent) in memory;
``SparseVec.add_into`` is only counted, because it is called hundreds of
thousands of times per run. ``installed()`` skips an attribute the package
does not have (the smoke test checks that none is missing) and restores every
attribute on exit, also when the traced run raises.
"""

from __future__ import annotations

import contextlib
import functools
import time

WRAPPED_MARK = "__perfbench_wrapped__"
# spans that also record how many component evaluations happen inside them
EVAL_SPANS = ("simulator.reference_solution",)


def _targets():
    """(owner, attribute, span name) for every traced call site."""
    from dsba import algorithms, dataset, operators, simulator, sparse, sparsecomm

    om, net = sparsecomm.ObserverMemory, sparsecomm.Network
    sites = [
        # setup
        (simulator, "synthetic_samples", "simulator.synthetic_samples"),
        (dataset, "partition", "dataset.partition"),
        (simulator, "build_problem", "simulator.build_problem"),
        (simulator, "make_adjacency", "topology.make_adjacency"),
        (simulator, "build_mixing", "topology.build_mixing"),
        (simulator, "lipschitz_bound", "operators.lipschitz_bound"),
        (simulator, "reference_solution", "simulator.reference_solution"),
        (dataset, "shard_manifest", "dataset.shard_manifest"),
        # per round
        (simulator, "dsba_node_step", "algorithms.dsba_node_step"),
        (sparsecomm, "dsba_node_step", "algorithms.dsba_node_step"),
        (algorithms, "resolve_regularized", "operators.resolve_regularized"),
        (algorithms.PhiTable, "update", "algorithms.PhiTable.update"),
        (simulator, "local_mean_operator", "algorithms.local_mean_operator"),
        (simulator, "extra_round", "algorithms.extra_round"),
        (simulator, "objective", "simulator.objective"),
        (simulator, "auc_score", "simulator.auc_score"),
        (om, "advance", "sparsecomm.ObserverMemory.advance"),
        (om, "absorb", "sparsecomm.ObserverMemory.absorb"),
        (om, "finish_round", "sparsecomm.ObserverMemory.finish_round"),
        (net, "broadcast", "sparsecomm.Network.broadcast"),
        (net, "deliver", "sparsecomm.Network.deliver"),
    ]
    # every engine run() dispatches to is one "simulator.loop" span
    engines = sorted(n for n in vars(simulator) if n.startswith("_run_"))
    sites += [(simulator, n, "simulator.loop") for n in engines + ["run_sparse"]]
    counted = [(sparse.SparseVec, "add_into", "sparse.SparseVec.add_into")]
    return sites, counted, operators.COUNTERS


class Trace:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.evals: dict[str, int] = {}  # component evals inside EVAL_SPANS
        self._stack: list[int] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _span_counting_evals(self, name, fn, counters):
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            evals0 = counters["component_evals"]
            try:
                return inner(*args, **kwargs)
            finally:
                self.evals[name] = (self.evals.get(name, 0)
                                    + counters["component_evals"] - evals0)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds; plus the
        self time of everything nested under the loop."""
        n = len(self.spans)
        child = [0.0] * n
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        in_loop = [False] * n
        loop_children_self = 0.0
        for k, (name, t0, t1, parent) in enumerate(self.spans):
            dur = t1 - t0
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[k]
            # parents precede children in the list, so one pass marks them
            in_loop[k] = parent >= 0 and (in_loop[parent]
                                          or self.spans[parent][0] == "simulator.loop")
            if in_loop[k]:
                loop_children_self += dur - child[k]
        out["simulator.loop.children"] = {"self_s": loop_children_self}
        return out

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[nm], round(t0 - base, 7), round(t1 - base, 7), p]
                      for nm, t0, t1, p in self.spans],
            "counts": self.counts,
            "component_evals": self.evals,
        }


@contextlib.contextmanager
def installed(trace: Trace):
    """Install the wrappers for the duration of the block."""
    sites, counted, counters = _targets()
    saved = []
    try:
        for owner, attr, name in sites + counted:
            if attr not in vars(owner):
                continue
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            if (owner, attr, name) in counted:
                setattr(owner, attr, trace._count(name, fn))
            elif name in EVAL_SPANS:
                setattr(owner, attr, trace._span_counting_evals(name, fn, counters))
            else:
                setattr(owner, attr, trace._span(name, fn))
        yield trace
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of dsba attributes that still hold a tracing wrapper."""
    import dsba
    from dsba import algorithms, dataset, operators, simulator, sparse, sparsecomm, topology

    found = []
    for mod in (dsba, algorithms, dataset, operators, simulator, sparse, sparsecomm,
                topology):
        for name, val in vars(mod).items():
            if getattr(val, WRAPPED_MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(val, type):
                for attr, member in vars(val).items():
                    if getattr(member, WRAPPED_MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
