"""dsba benchmark: time to a stated suboptimality through ``dsba.simulator.run``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ridge-dense --seed 0 --seconds 25 --trace 0

Each workload is a fixed set of problem instances generated from ``--seed``
(data, graph and per-node sample streams). Every instance is run to its
suboptimality target and, separately, with ``rounds=0`` to time the set-up.
Repetitions go round the instances while ``--seconds`` allows, each instance
at least once; a timing is the median of an instance's repetitions, and
instance-dependent metrics are averaged over the set, so the figures move
little from seed to seed. Every timed run passes correctness gates or counts
as failed.

With ``--trace 1`` the first ``TRACE_INSTANCES`` instances run once untraced
and once with span wrappers installed around the layers' functions (see
``spans.py``); the per-layer figures are means over those instances and the
spans are written to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every gate passed, 1 when one failed and 2 when the benchmark cannot
run at all (for instance, no ``src/dsba`` in the checkout).
"""

from __future__ import annotations

import os

# numpy links a 64-thread OpenBLAS; the benchmark is one process on a small
# machine, so BLAS must not spawn threads that compete with it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

DEFAULT_SEED = 0             # seed 101 is held out for claims on an unseen seed
RESIDUAL_TOL = 1e-10         # ||F(z*)|| of the reference solve
DENSE_SPARSE_TOL = 1e-9      # the acceptance suite's dense = sparse tolerance
WARMUP_ROUNDS = 60           # two metric rows, so the score column is computed


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    family: str
    variant: str
    comm: str
    kind: str                # synthetic data kind
    nnz: int | None          # nonzeros per sample; None = dense rows
    target: float            # stop_subopt
    instances: int           # problem instances per seed
    max_rounds: int          # a run that has not reached the target here fails


WORKLOADS = {w.name: w for w in [
    # targets keep one instance near 1-2 s, so repetitions fit the budget
    Workload("ridge-dense", "ridge", "dsba", "dense", "ridge", None, 1e-2, 8, 60_000),
    Workload("auc-dense", "auc", "dsba", "dense", "classification", None, 0.6, 8, 20_000),
    Workload("ridge-sparse", "ridge", "dsba", "sparse", "ridge", 5, 0.7, 8, 20_000),
    Workload("ridge-extra", "ridge", "extra", "dense", "ridge", None, 0.6, 8, 20_000),
]}
TRACE_INSTANCES = 4          # instances run traced with --trace 1

END_TO_END = {
    "time_to_target_s": "s",
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "passes_to_target": "passes",
    "comm_doubles_per_round": "doubles",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # set-up
    "simulator.reference_solution.s": "s",
    "simulator.reference_solution.component_evals": "count",
    "operators.lipschitz_bound.s": "s",
    "operators.lipschitz_bound.calls": "count",
    "simulator.synthetic_samples.s": "s",
    "dataset.partition.s": "s",
    "simulator.build_problem.s": "s",
    "topology.make_adjacency.s": "s",
    "topology.build_mixing.s": "s",
    "dataset.shard_manifest.s": "s",
    # round loop
    "simulator.loop.s": "s",
    "simulator.loop.self_s": "s",
    "simulator.loop.children.self_s": "s",
    "algorithms.dsba_node_step.calls": "count",
    "algorithms.dsba_node_step.self_s": "s",
    "operators.resolve_regularized.calls": "count",
    "operators.resolve_regularized.s": "s",
    "algorithms.PhiTable.update.s": "s",
    "algorithms.local_mean_operator.calls": "count",
    "algorithms.local_mean_operator.s": "s",
    "algorithms.extra_round.s": "s",
    "simulator.objective.calls": "count",
    "simulator.objective.s": "s",
    "simulator.auc_score.calls": "count",
    "simulator.auc_score.s": "s",
    "sparsecomm.ObserverMemory.advance.calls": "count",
    "sparsecomm.ObserverMemory.advance.self_s": "s",
    "sparsecomm.ObserverMemory.absorb.s": "s",
    "sparsecomm.ObserverMemory.finish_round.s": "s",
    "sparsecomm.Network.broadcast.s": "s",
    "sparsecomm.Network.deliver.s": "s",
    "sparse.SparseVec.add_into.calls": "count",
    "operators.component_evals": "count",
    "operators.resolves": "count",
    # traffic and memory
    "sparsecomm.received_doubles.max": "doubles",
    "sparsecomm.received_doubles.sum": "doubles",
    "sparsecomm.comm_rounds_retained": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_dsba():
    src = ROOT / "src"
    if not (src / "dsba" / "__init__.py").is_file():
        raise BenchError(f"no dsba sources under {src}")
    sys.path.insert(0, str(src))
    import dsba
    if Path(dsba.__file__).resolve().parent != (src / "dsba").resolve():
        raise BenchError(f"imported dsba from {dsba.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def instance_configs(wl: Workload, seed: int) -> list:
    """The workload's problem instances for one workload seed."""
    import numpy as np
    from dsba.simulator import RunConfig, SyntheticSpec

    configs = []
    for k in range(wl.instances):
        data_seed, graph_seed, run_seed = (
            int(x) for x in np.random.SeedSequence([seed, k]).generate_state(3))
        configs.append(RunConfig(
            family=wl.family, variant=wl.variant, comm=wl.comm, engine="auto",
            n_nodes=10, topology="random", edge_prob=0.4, graph_seed=graph_seed,
            synthetic=SyntheticSpec(wl.kind, d=50, n_samples=300, nnz=wl.nnz,
                                    seed=data_seed),
            rounds=wl.max_rounds, seed=run_seed, stop_subopt=wl.target))
    return configs


def timed_run(cfg):
    from dsba import operators
    from dsba.simulator import run

    # run() never resets the module-global counters
    operators.reset_counters()
    gc.collect()
    t0 = time.perf_counter()
    res = run(cfg)
    return time.perf_counter() - t0, res


def gate(wl: Workload, res) -> list[str]:
    """Correctness failures of one run to the target."""
    errors = []
    final = res.metrics.final
    if not final.subopt <= wl.target:
        errors.append(f"final subopt {final.subopt:.3g} above target {wl.target:g} "
                      f"after {final.round} rounds")
    if not res.z_star_residual <= RESIDUAL_TOL:
        errors.append(f"reference residual {res.z_star_residual:.3g} > {RESIDUAL_TOL:g}")
    return errors


def dense_sparse_gap(cfg, res) -> float:
    """Max deviation of a sparse run's final iterate from the dense generic
    engine run for the same number of rounds (untimed)."""
    import numpy as np
    from dsba.simulator import run

    dense = run(dataclasses.replace(cfg, comm="dense", engine="generic",
                                    rounds=res.metrics.final.round,
                                    stop_subopt=None, compute_score=False))
    return float(np.max(np.abs(dense.z_final - res.z_final)))


@dataclasses.dataclass
class Instance:
    cfg: object
    # one entry per repetition whose set-up and run both completed
    ttt: list = dataclasses.field(default_factory=list)     # run to target, s
    setup: list = dataclasses.field(default_factory=list)   # rounds=0, s
    rounds: int = 0
    passes: float = 0.0
    comm_per_round: float = 0.0
    last_s: float = 0.0      # duration of the latest repetition


class Tally:
    """Gated checks attempted and failed; failure messages for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.failures += [f"{label}: {e}" for e in errors]


def run_to_target(wl, inst: Instance, k: int, tally: Tally, first: bool):
    """One gated run to the target; returns (seconds, result) or None."""
    label = f"{wl.name} instance {k}"
    try:
        secs, res = timed_run(inst.cfg)
        errors = gate(wl, res)
        if first and k == 0 and wl.comm == "sparse":
            gap = dense_sparse_gap(inst.cfg, res)
            if not gap <= DENSE_SPARSE_TOL:
                errors.append(f"sparse iterate differs from dense by {gap:.3g}")
    except Exception as exc:  # a failed repetition is counted, never dropped
        tally.check(label, [f"{type(exc).__name__}: {exc}"])
        return None
    tally.check(label, errors)
    final = res.metrics.final
    inst.rounds = final.round
    inst.passes = res.metrics.passes_to(wl.target) or final.effective_passes
    inst.comm_per_round = final.c_max / max(final.round, 1)
    return secs, res


def warm_up(wl: Workload, instances: list[Instance]) -> None:
    """Untimed short run: pays first-call costs such as lazy imports."""
    from dsba.simulator import run
    run(dataclasses.replace(instances[0].cfg, rounds=WARMUP_ROUNDS, stop_subopt=None))


def measure(wl: Workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    instances = [Instance(cfg) for cfg in instance_configs(wl, seed)]
    tally = Tally()
    warm_up(wl, instances)
    # repetitions go round the instances; after the first round one more
    # starts only while it is expected to end within the time budget
    start = time.perf_counter()
    reps = 0
    while True:
        k = reps % len(instances)
        inst = instances[k]
        if reps >= len(instances) and (time.perf_counter() - start + inst.last_s
                                       > seconds):
            break
        rep_start = time.perf_counter()
        errors = []
        try:
            setup_s = timed_run(dataclasses.replace(inst.cfg, rounds=0))[0]
        except Exception as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
        tally.check(f"{wl.name} instance {k} set-up", errors)
        out = run_to_target(wl, inst, k, tally, first=reps < len(instances))
        if out is not None and not errors:
            inst.setup.append(setup_s)
            inst.ttt.append(out[0])
        inst.last_s = time.perf_counter() - rep_start
        reps += 1

    done = [i for i in instances if i.ttt]
    metrics = {}
    if done:
        # a repetition's set-up run comes right before its run to target, so
        # the two see the same machine load
        metrics = {
            "time_to_target_s": statistics.fmean(statistics.median(i.ttt) for i in done),
            "setup_s": statistics.median(s for i in done for s in i.setup),
            "rounds_per_s": statistics.median(
                i.rounds / (t - s) for i in done for t, s in zip(i.ttt, i.setup)),
            "passes_to_target": statistics.fmean(i.passes for i in done),
            "comm_doubles_per_round": statistics.fmean(i.comm_per_round for i in done),
            "peak_rss_mb": peak_rss_mb(),
        }
    detail = {
        "repetitions": reps,
        "instances": [{"ttt_s": i.ttt, "setup_s": i.setup, "rounds": i.rounds,
                       "passes_to_target": i.passes} for i in instances],
    }
    return {"metrics": metrics, "detail": detail}, tally


def measure_traced(wl: Workload, seed: int) -> tuple[dict, Tally]:
    import spans

    instances = [Instance(cfg) for cfg in instance_configs(wl, seed)][:TRACE_INSTANCES]
    tally = Tally()
    warm_up(wl, instances)
    rows, untraced, traced, dumps = [], [], [], []
    for k, inst in enumerate(instances):
        out = run_to_target(wl, inst, k, tally, first=True)
        if out is None:
            continue
        trace = spans.Trace()
        with spans.installed(trace):
            out_traced = run_to_target(wl, inst, k, tally, first=False)
        if out_traced is None:
            continue
        untraced.append(out[0])
        traced.append(out_traced[0])
        rows.append(layer_values(trace, out_traced[1]))
        dumps.append(trace.dump())
    leftover = spans.leftover_wrappers()
    if leftover:
        tally.check(f"{wl.name} trace", [f"still wrapped: {', '.join(leftover)}"])
    metrics = {}
    if rows:
        metrics = {name: statistics.fmean(r[name] for r in rows) for name in PER_LAYER
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
        gap = abs(metrics["simulator.loop.s"] - metrics["simulator.loop.self_s"]
                  - metrics["simulator.loop.children.self_s"])
        tally.check(f"{wl.name} trace", [] if gap <= 1e-9 else
                    [f"loop self times do not add up to the loop span ({gap:.3g} s)"])
    write_trace(wl, seed, dumps)
    return {"metrics": metrics, "detail": {"untraced_s": untraced, "traced_s": traced}}, tally


def layer_values(trace, res) -> dict:
    from dsba import operators

    summary = trace.summary()
    values = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if span in summary and stat in summary[span]:
            values[name] = summary[span][stat]
        else:
            values[name] = 0
    values["simulator.reference_solution.component_evals"] = trace.evals.get(
        "simulator.reference_solution", 0)
    values["sparse.SparseVec.add_into.calls"] = trace.counts.get(
        "sparse.SparseVec.add_into", 0)
    values["operators.component_evals"] = operators.COUNTERS["component_evals"]
    values["operators.resolves"] = operators.COUNTERS["resolves"]
    received = res.received_doubles
    values["sparsecomm.received_doubles.max"] = int(received.max()) if received is not None else 0
    values["sparsecomm.received_doubles.sum"] = int(received.sum()) if received is not None else 0
    values["sparsecomm.comm_rounds_retained"] = len(res.comm_per_round or ())
    return values


def write_trace(wl: Workload, seed: int, dumps: list) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "environment": environment(),
                   "instances": dumps}, fh)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_dsba()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    env = environment()
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# workload {wl.name} seed {args.seed}: {dataclasses.asdict(wl)}")
    if args.trace:
        result, tally = measure_traced(wl, args.seed)
        units = PER_LAYER
    else:
        result, tally = measure(wl, args.seed, args.seconds)
        units = END_TO_END
    print(f"# detail {json.dumps(result['detail'])}")
    for failure in tally.failures:
        print(f"# FAILED {failure}")
    metrics = result["metrics"]
    if not args.trace:
        print(f"# {'run_failures':<46} {tally.failed:>14} count "
              f"of {tally.attempted} attempted")
    for name, value in metrics.items():
        print(f"# {name:<46} {value:>14.6g} {units[name]}")
    correct = tally.failed == 0 and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
