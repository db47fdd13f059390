"""Command-line front end: run experiments, compare variants, validate the
cross-module invariants, and prep LIBSVM datasets.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from .algorithms import PhiTable
from .operators import eval_component, resolve_regularized
from .simulator import (ConfigError, RunConfig, SyntheticSpec, manifest_json,
                        run)
from .topology import (TopologyError, adjacency_erdos_renyi, build_mixing,
                       check_mixing_conditions)

EXIT_OK = 0
EXIT_VALIDATE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("DSBA_OUT", "runs")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# every key an INI file may set, by section
INI_KEYS = {
    "run": {"family", "variant", "comm", "engine", "rounds", "seed", "alpha",
            "lambda", "metric_every", "stop_subopt"},
    "graph": {"n_nodes", "topology", "edge_prob", "graph_seed", "tau_scale"},
    "data": {"path", "synthetic", "d", "n_samples", "nnz", "noise", "margin",
             "data_seed"},
}


def _check_keys(cfg: configparser.ConfigParser, path: str) -> None:
    """A misspelt key or section would otherwise fall back to its default."""
    unknown = [f"[{s}]" for s in cfg.sections() if s not in INI_KEYS]
    unknown += [f"[{cfg.default_section}] {k}" for k in cfg.defaults()]
    unknown += [f"[{s}] {k}" for s in cfg.sections() if s in INI_KEYS
                for k in cfg.options(s) if k not in INI_KEYS[s] and k not in cfg.defaults()]
    if unknown:
        raise ConfigError(f"unknown keys or sections in {path}: {', '.join(unknown)}")


def _get(cfg: configparser.ConfigParser, section: str, key: str, cast, default):
    if cfg.has_option(section, key):
        raw = cfg.get(section, key).strip()
        if raw:
            try:
                return cast(raw)
            except ValueError:
                raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid "
                                  f"{cast.__name__}") from None
    return default


def load_config(path: str | None, args) -> RunConfig:
    cfg = configparser.ConfigParser()
    if path is not None:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
        _check_keys(cfg, path)

    data_path = _get(cfg, "data", "path", str, None)
    synthetic = None
    if _get(cfg, "data", "synthetic", str, None) is not None or data_path is None:
        synthetic = SyntheticSpec(
            kind=_get(cfg, "data", "synthetic", str, "ridge"),
            d=_get(cfg, "data", "d", int, 50),
            n_samples=_get(cfg, "data", "n_samples", int, 200),
            nnz=_get(cfg, "data", "nnz", int, None),
            noise=_get(cfg, "data", "noise", float, 0.1),
            margin=_get(cfg, "data", "margin", float, 0.0),
            seed=_get(cfg, "data", "data_seed", int, 0),
        )
        if data_path is not None:
            raise ConfigError("config sets both data.path and data.synthetic")

    rc = RunConfig(
        family=_get(cfg, "run", "family", str, "ridge"),
        variant=_get(cfg, "run", "variant", str, "dsba"),
        comm=_get(cfg, "run", "comm", str, "dense"),
        engine=_get(cfg, "run", "engine", str, "auto"),
        rounds=_get(cfg, "run", "rounds", int, 1000),
        seed=_get(cfg, "run", "seed", int, 0),
        alpha=_get(cfg, "run", "alpha", float, None),
        lam=_get(cfg, "run", "lambda", float, None),
        metric_every=_get(cfg, "run", "metric_every", int, None),
        stop_subopt=_get(cfg, "run", "stop_subopt", float, None),
        n_nodes=_get(cfg, "graph", "n_nodes", int, 10),
        topology=_get(cfg, "graph", "topology", str, "random"),
        edge_prob=_get(cfg, "graph", "edge_prob", float, 0.4),
        graph_seed=_get(cfg, "graph", "graph_seed", int, 0),
        tau_scale=_get(cfg, "graph", "tau_scale", float, 1.0),
        synthetic=synthetic,
        dataset_path=data_path,
    )
    # command-line overrides win over file values
    for attr, val in (("alpha", args.alpha), ("rounds", args.rounds),
                      ("seed", args.seed), ("variant", args.variant),
                      ("comm", args.comm), ("tau_scale", args.tau_scale)):
        if val is not None:
            setattr(rc, attr, val)
    rc.validate()
    return rc


def cmd_run(args) -> int:
    rc = load_config(args.config, args)
    out = _out_dir(args)
    result = run(rc)
    (out / "metrics.csv").write_text(result.metrics.to_csv())
    (out / "manifest.json").write_text(manifest_json(result))
    print(f"wrote {out/'metrics.csv'} ({len(result.metrics.rows)} rows), "
          f"final subopt {result.metrics.final.subopt:.3e}")
    return EXIT_OK


def cmd_compare(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError("no variants given")
    out = _out_dir(args)
    lines = ["variant,round,effective_passes,subopt,score,c_max"]
    manifests = {}
    for variant in variants:
        rc = load_config(args.config, args)
        rc.variant = variant
        rc.validate()
        result = run(rc)
        manifests[variant] = result.manifest
        for row in result.metrics.rows:
            lines.append(f"{variant},{row.round},{row.effective_passes:.10g},"
                         f"{row.subopt:.10g},{row.score:.10g},{row.c_max}")
        print(f"{variant}: final subopt {result.metrics.final.subopt:.3e} "
              f"at round {result.metrics.final.round}")
    (out / "compare.csv").write_text("\n".join(lines) + "\n")
    (out / "manifest.json").write_text(json.dumps(manifests, indent=2, sort_keys=True))
    print(f"wrote {out/'compare.csv'}")
    return EXIT_OK


def _validate_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(0)

    # mixing-matrix conditions across a handful of graphs
    ok, detail = True, ""
    for i, (n, p) in enumerate([(4, 0.6), (6, 0.5), (8, 0.4), (10, 0.4), (12, 0.3)]):
        mix = build_mixing(adjacency_erdos_renyi(n, p, seed=i))
        report = check_mixing_conditions(mix)
        if not all(report.values()):
            ok = False
            detail = f"N={n} failed {[k for k, v in report.items() if not v]}"
            break
    checks.append(("mixing-matrix conditions", ok, detail))

    # resolvent identities, 100 instances per family
    worst = {"ridge": 0.0, "logistic": 0.0, "auc": 0.0}
    for family in worst:
        for _ in range(100):
            d = int(rng.integers(3, 25))
            nnz = int(rng.integers(1, d + 1))
            idx = np.sort(rng.choice(d, size=nnz, replace=False))
            val = rng.normal(size=nnz)
            a = np.zeros(d)
            a[idx] = val / np.linalg.norm(val)
            label = float(rng.choice([-1.0, 1.0])) if family != "ridge" else float(rng.normal())
            lam = float(rng.uniform(0, 0.3))
            p = float(rng.uniform(0.2, 0.8)) if family == "auc" else None
            alpha = float(rng.uniform(1e-3, 5.0))
            psi = 2.0 * rng.normal(size=d + 3 if family == "auc" else d)
            z = resolve_regularized(family, a, label, alpha, lam, psi, p)
            B = eval_component(family, a, label, z, p) + lam * z
            worst[family] = max(worst[family], float(np.linalg.norm(z + alpha * B - psi)))
        checks.append((f"resolvent identity ({family})", worst[family] <= 1e-9,
                       f"worst residual {worst[family]:.2e}"))

    # variance-reduced estimator is unbiased over the sample index
    ok = True
    for _ in range(20):
        d, q = 12, 7
        X, y = [], []
        for _ in range(q):
            a = rng.normal(size=d)
            X.append(a / np.linalg.norm(a))
            y.append(float(rng.normal()))
        z0, z = rng.normal(size=d), rng.normal(size=d)
        table = PhiTable([eval_component("ridge", a, b, z0) for a, b in zip(X, y)])
        B = np.array([eval_component("ridge", a, b, z) for a, b in zip(X, y)])
        mean_est = (B - table.val).sum(axis=0) / q + table.phibar + 0.1 * z
        true = B.sum(axis=0) / q + 0.1 * z
        if np.abs(mean_est - true).max() > 1e-10:
            ok = False
    checks.append(("history-table estimator unbiasedness", ok, ""))

    # dense vs sparse trajectories on three fixed small configurations
    ok, detail = True, ""
    for topo, n in [("complete", 3), ("path", 4), ("ring", 4)]:
        spec = SyntheticSpec(kind="ridge", d=20, n_samples=8 * n, nnz=5, seed=3)
        base = dict(family="ridge", variant="dsba", n_nodes=n, topology=topo,
                    synthetic=spec, rounds=60, seed=11, metric_every=30,
                    engine="generic", record_trajectory=True, compute_score=False)
        r1 = run(RunConfig(comm="dense", **base))
        r2 = run(RunConfig(comm="sparse", **base))
        err = max(float(np.abs(a - b).max())
                  for a, b in zip(r1.trajectory, r2.trajectory))
        if err > 1e-9:
            ok = False
            detail = f"{topo}: err {err:.2e}"
            break
    checks.append(("dense vs sparse equivalence", ok, detail))
    return checks


def cmd_validate(args) -> int:
    checks = _validate_checks()
    width = max(len(name) for name, _, _ in checks)
    failed = False
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failed = failed or not ok
    return EXIT_VALIDATE if failed else EXIT_OK


def cmd_prep(args) -> int:
    out = _out_dir(args)
    shards = ds.partition(ds.normalize_rows(ds.read_libsvm(args.dataset)), args.nodes,
                          args.seed)
    (out / "shards.json").write_text(json.dumps(ds.shard_manifest(shards), indent=2))
    print(f"{shards.Q} samples, d={shards.d}, {args.nodes} shards (q_min={shards.q_min}), "
          f"p={shards.p:.4f}, rho={shards.rho:.4f}, lambda=1/(10Q)={1/(10*shards.Q):.3e}")
    print(f"wrote {out/'shards.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsba-sim",
        description="Decentralized stochastic operator root-finding simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_config=True):
        if need_config:
            p.add_argument("--config", help="INI config file")
            p.add_argument("--alpha", type=float)
            p.add_argument("--rounds", type=int)
            p.add_argument("--variant")
            p.add_argument("--comm", choices=["dense", "sparse"])
            p.add_argument("--tau-scale", dest="tau_scale", type=float)
        p.add_argument("--out", help="output directory (default $DSBA_OUT or ./runs)")

    p_run = sub.add_parser("run", help="execute one configuration")
    common(p_run)
    p_run.add_argument("--seed", type=int)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several variants on identical shards")
    common(p_cmp)
    p_cmp.add_argument("--variants", default="dsba,dsa,extra")
    p_cmp.add_argument("--seed", type=int, required=True,
                       help="mandatory for reproducible comparisons")
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="run cross-module property suites")
    common(p_val, need_config=False)
    p_val.set_defaults(func=cmd_validate)

    p_prep = sub.add_parser("prep", help="parse/partition a LIBSVM file")
    p_prep.add_argument("dataset")
    p_prep.add_argument("--nodes", type=int, default=10)
    p_prep.add_argument("--seed", type=int, default=0)
    common(p_prep, need_config=False)
    p_prep.set_defaults(func=cmd_prep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ds.DatasetError, TopologyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
