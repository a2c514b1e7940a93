"""Batch command-line front end.

Four subcommands: ``simulate`` writes benchmark series to CSV, ``discover``
runs a structure search on a CSV and emits graphs plus a decision log,
``evaluate`` scores an estimated graph against a truth graph, and
``reproduce`` runs benchmark sweeps to metrics tables.

Every command accepts ``--config FILE`` holding ``key=value`` lines (keys are
the long flag names); unknown keys are rejected, as is ``none`` or an empty
value for a flag whose default is not None.  Precedence is built-in
defaults, then profile, then config file, then explicit flags.  Each run
persists its effective configuration as ``config.txt`` in the output
directory, which can be fed back through ``--config`` to replay the run.

Exit codes: 0 on success, 1 on a runtime failure (a machine-readable
``error.json`` is left in the output directory when one is known), 2 on
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .citests import BootstrapConfig, GaussianCiConfig, HsicConfig, decoupled_pair_gamma
from .citests.gaussian import FISHER_Z_MIN_ROWS
from .data import DataMatrix, ingest_csv, write_csv, write_text_atomic
from .graphs import Dag, Pdag, RolledGraph, graph_from_json, roll, to_dot, to_json
from .pc import PcConfig, decisions_to_csv
from .evaluate import TPR_MODES, confusion, metrics
from .reproduce import METHODS, SweepConfig, run_sweep, write_outputs
from .rng import STREAM_CALIBRATE, STREAM_SUBSAMPLE, derive_seed
from .simulate import PARADIGMS, SimConfig, generate
from .tpc import (
    TpcnsConfig,
    WindowConfig,
    calibration_rows,
    frequencies_to_csv,
    tpc,
    tpcns,
    unrolled_rows,
)

__all__ = ["main"]

_FORMATS = ("dot", "json", "csv")

_PROFILES = {
    # Long multivariate recordings: two-step windows at every offset, light
    # subsample cutoff, standard test level.
    "river-runoff": {
        "method": "tpcns",
        "test": "gaussian",
        "alpha": 0.05,
        "tau": 2,
        "stride": 1,
        "L": 50,
        "subsamples": 50,
        "cutoff": 0.1,
    },
}


class CliError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="tspc",
        description="Constraint-based structure discovery for time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    sim = sub.add_parser("simulate", help="generate a benchmark series to CSV")
    sim.add_argument("--paradigm", choices=PARADIGMS, required=True)
    sim.add_argument("--eta", type=float, default=1.0, help="noise scale")
    sim.add_argument("--n", type=int, default=1000,
                     help="rows (total milliseconds for CTRNN)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--burn-in", type=int, default=0)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--config", help="key=value file of flag defaults")
    commands["simulate"] = sim

    dis = sub.add_parser("discover", help="run structure discovery on a CSV")
    dis.add_argument("--method", choices=("pc", "tpcs", "tpcns"))
    dis.add_argument("--test", choices=("gaussian", "hsic", "oracle"), default="gaussian")
    dis.add_argument("--alpha", type=float, default=0.05)
    dis.add_argument("--gamma", type=float, default=None,
                     help="fixed threshold overriding alpha")
    dis.add_argument("--tau", type=int, default=1, help="window depth")
    dis.add_argument("--stride", type=int, default=2, help="rows between windows")
    dis.add_argument("--L", type=int, default=50, help="subsample window length")
    dis.add_argument("--subsamples", type=int, default=50)
    dis.add_argument("--cutoff", type=float, default=0.4,
                     help="subsample edge-frequency cutoff")
    dis.add_argument("--in", dest="input", required=True, help="input CSV")
    dis.add_argument("--out", required=True, help="output directory")
    dis.add_argument("--formats", default="json,csv",
                     help="comma subset of dot,json,csv")
    dis.add_argument("--truth", default=None,
                     help="truth graph JSON for the oracle test")
    dis.add_argument("--seed", type=int, default=0)
    dis.add_argument("--max-rows", type=int, default=None,
                     help="row cap per kernel test")
    dis.add_argument("--max-cond-size", type=int, default=None)
    dis.add_argument("--stable", action=argparse.BooleanOptionalAction, default=False,
                     help="snapshot neighbourhoods per level")
    dis.add_argument("--bootstrap-replicates", type=int, default=100)
    dis.add_argument("--block-length", type=float, default=20.0)
    dis.add_argument("--profile", choices=tuple(_PROFILES), default=None)
    dis.add_argument("--config", help="key=value file of flag defaults")
    commands["discover"] = dis

    ev = sub.add_parser("evaluate", help="score an estimated graph against truth")
    ev.add_argument("--est", required=True, help="estimated graph JSON")
    ev.add_argument("--truth", required=True, help="truth graph JSON")
    ev.add_argument("--self-loops", action=argparse.BooleanOptionalAction, default=True)
    ev.add_argument("--tpr-mode", choices=TPR_MODES, default="condition-positives")
    ev.add_argument("--config", help="key=value file of flag defaults")
    commands["evaluate"] = ev

    rep = sub.add_parser("reproduce", help="benchmark sweep to metrics CSVs")
    rep.add_argument("--paradigm", choices=PARADIGMS, required=True)
    rep.add_argument("--methods", default=",".join(METHODS))
    rep.add_argument("--etas", default="1.0", help="comma list")
    rep.add_argument("--alphas", default="0.05", help="comma list")
    rep.add_argument("--reps", type=int, default=25)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--out", required=True, help="output directory")
    rep.add_argument("--n", type=int, default=1000)
    rep.add_argument("--tau", type=int, default=2)
    rep.add_argument("--stride", type=int, default=2)
    rep.add_argument("--L", type=int, default=50)
    rep.add_argument("--subsamples", type=int, default=50)
    rep.add_argument("--cutoff", type=float, default=0.4)
    rep.add_argument("--hsic-max-rows", type=int, default=400,
                     help="row cap per kernel test; 0 or less lifts the cap")
    rep.add_argument("--config", help="key=value file of flag defaults")
    commands["reproduce"] = rep

    return parser, commands


_BOOLEAN_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _parse_config_file(path: str, command_parser: argparse.ArgumentParser) -> dict[str, object]:
    """Read key=value lines, validating keys against the command's flags."""
    file = Path(path)
    if not file.exists():
        raise CliError(f"config file not found: {file}")
    actions = {a.dest: a for a in command_parser._actions}
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(file.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{file}: line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        value = value.strip()
        if dest in ("help", "config", "command") or dest not in actions:
            raise CliError(f"{file}: line {lineno}: unknown config key {key.strip()!r}")
        action = actions[dest]
        bad_value = CliError(f"{file}: line {lineno}: bad value {value!r} for {key.strip()!r}")
        if isinstance(action, argparse.BooleanOptionalAction) or (
            action.nargs == 0 and action.const is not None
        ):
            if value.lower() not in _BOOLEAN_WORDS:
                raise bad_value
            overrides[dest] = _BOOLEAN_WORDS[value.lower()]
        elif value == "" or value.lower() == "none":
            if action.default is not None:
                raise bad_value
            overrides[dest] = None
            continue
        elif action.type is not None:
            try:
                overrides[dest] = action.type(value)
            except ValueError:
                raise bad_value from None
        else:
            overrides[dest] = value
        if action.choices is not None and overrides[dest] not in action.choices:
            raise CliError(
                f"{file}: line {lineno}: {key.strip()!r} must be one of "
                f"{tuple(action.choices)}, got {value!r}"
            )
    return overrides


def _effective_config_text(args: argparse.Namespace) -> str:
    skip = {"command", "config"}
    lines = []
    for dest, value in sorted(vars(args).items()):
        if dest in skip or value is None:
            continue
        if isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{dest.replace('_', '-')}={value}")
    return "\n".join(lines) + "\n"


def _prepare_out(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out / "config.txt", _effective_config_text(args))
    return out


def _load_rolled(path: str) -> RolledGraph:
    """Read a graph JSON as a rolled graph; undirected edges expand both ways."""
    file = Path(path)
    if not file.exists():
        raise CliError(f"graph file not found: {file}")
    try:
        g = graph_from_json(file.read_text())
    except ValueError as exc:
        raise CliError(f"{file}: {exc}") from exc
    if isinstance(g, RolledGraph):
        return g
    return roll(g, g.p, 1)


def _load_truth_dag(path: str, expected_p: int) -> Dag:
    file = Path(path)
    if not file.exists():
        raise CliError(f"truth graph not found: {file}")
    try:
        g = graph_from_json(file.read_text())
        if isinstance(g, Pdag):
            raise ValueError("truth must be fully directed")
        dag = Dag(g.p, g.edges)
    except ValueError as exc:
        raise CliError(f"{file}: not a usable truth graph: {exc}") from exc
    if dag.p != expected_p:
        raise CliError(
            f"{file}: truth has {dag.p} nodes but the search runs on {expected_p}"
        )
    return dag


def _edges_csv(g: Pdag | RolledGraph) -> str:
    lines = ["from,to,kind"]
    if isinstance(g, Pdag):
        rows = [(u, v, "directed") for u, v in sorted(g.directed)]
        rows += [(u, v, "undirected") for u, v in sorted(g.undirected)]
        rows.sort()
    else:
        rows = [(u, v, "directed") for u, v in sorted(g.edges)]
    for u, v, kind in rows:
        lines.append(f"{u + 1},{v + 1},{kind}")
    return "\n".join(lines) + "\n"


def _emit_graph(out: Path, stem: str, g: Pdag | RolledGraph, formats: set[str]) -> None:
    if "json" in formats:
        write_text_atomic(out / f"{stem}.json", to_json(g))
    if "dot" in formats:
        write_text_atomic(out / f"{stem}.dot", to_dot(g, name=stem))
    if "csv" in formats:
        write_text_atomic(out / f"{stem}_edges.csv", _edges_csv(g))


def _run_simulate(args: argparse.Namespace) -> None:
    try:
        cfg = SimConfig(
            paradigm=args.paradigm,
            eta=args.eta,
            n=args.n,
            seed=args.seed,
            burn_in=args.burn_in,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out = _prepare_out(args)
    data = generate(cfg)
    write_csv(data, out / "data.csv")
    print(f"wrote {out / 'data.csv'} ({data.n} rows x {data.p} columns)")


def _discover_pc_config(
    args: argparse.Namespace, data: DataMatrix, window: WindowConfig
) -> PcConfig:
    # Checked once for every test, before a kernel calibration turns alpha
    # into a bootstrap quantile.
    if args.gamma is None and not 0.0 < args.alpha < 1.0:
        raise CliError(f"alpha must lie in (0, 1), got {args.alpha}")
    try:
        if args.test == "gaussian":
            alpha = args.alpha if args.gamma is None else None
            test = GaussianCiConfig(alpha=alpha, gamma=args.gamma)
        elif args.test == "hsic":
            gamma = args.gamma
            if gamma is None:
                # One threshold per run, from a decoupled surrogate pair: a
                # bootstrap quantile taken on the pair under test would track
                # the very dependence being tested and so could never flag an
                # edge.
                gamma = decoupled_pair_gamma(
                    calibration_rows(data, window, args.L if args.method == "tpcns" else None),
                    BootstrapConfig(
                        num_replicates=args.bootstrap_replicates,
                        expected_block_length=args.block_length,
                        quantile=1.0 - args.alpha,
                        seed=derive_seed(args.seed, STREAM_CALIBRATE),
                    ),
                    HsicConfig(max_rows=args.max_rows),
                )
            test = HsicConfig(gamma=gamma, max_rows=args.max_rows)
        else:
            if args.truth is None:
                raise CliError("the oracle test requires --truth")
            test = _load_truth_dag(args.truth, data.p * window.tau)
        return PcConfig(test, max_cond_size=args.max_cond_size, stable=args.stable)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _run_discover(args: argparse.Namespace) -> None:
    if args.method is None:
        raise CliError("--method is required (or use --profile)")
    formats = {f.strip() for f in args.formats.split(",") if f.strip()}
    bad = formats - set(_FORMATS)
    if bad:
        raise CliError(f"unknown formats {sorted(bad)}; choose from {_FORMATS}")
    if not formats:
        raise CliError("need at least one output format")
    try:
        data = ingest_csv(args.input)
    except (FileNotFoundError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    # Bad subsample settings, a window the data cannot fill and too few rows
    # for Fisher-z at level alpha are usage errors, found before a kernel
    # calibration runs or any output is written.
    try:
        window = (WindowConfig(tau=1, r=1) if args.method == "pc"
                  else WindowConfig(tau=args.tau, r=args.stride))
        if args.method == "tpcns":
            tcfg = TpcnsConfig(
                window_length=args.L,
                num_subsamples=args.subsamples,
                freq_cutoff=args.cutoff,
                window=window,
                seed=derive_seed(args.seed, STREAM_SUBSAMPLE),
            )
        rows = unrolled_rows(data.n, window, args.L if args.method == "tpcns" else None)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    searched = args.L if args.method == "tpcns" else rows
    if args.test == "gaussian" and args.gamma is None and searched < FISHER_Z_MIN_ROWS:
        got = f"--L {args.L}" if args.method == "tpcns" else f"{rows} rows to search"
        raise CliError(f"the Fisher-z test at level alpha needs at least "
                       f"{FISHER_Z_MIN_ROWS} rows, got {got}")
    pc_cfg = _discover_pc_config(args, data, window)
    out = _prepare_out(args)

    if args.method == "tpcns":
        result = tpcns(data, replace(tcfg, pc=pc_cfg))
        _emit_graph(out, "graph", result.graph, formats)
        write_text_atomic(out / "frequencies.csv", frequencies_to_csv(result.frequencies))
        diagnostics = result.diagnostics
        summary = f"wrote rolled graph with {len(result.graph.edges)} edges to {out}"
    else:
        result = tpc(data, window, pc_cfg)
        pdag = result.pc.pdag
        _emit_graph(out, "graph", pdag, formats)
        write_text_atomic(out / "decisions.csv", decisions_to_csv(result.pc.decisions))
        diagnostics = result.pc.diagnostics
        if args.method == "tpcs":
            _emit_graph(out, "rolled", result.rolled, formats)
            summary = f"wrote rolled graph with {len(result.rolled.edges)} edges to {out}"
        else:
            summary = (f"wrote {out / 'graph.json' if 'json' in formats else out} "
                       f"({len(pdag.directed)} directed, {len(pdag.undirected)} undirected)")
    for line in diagnostics:
        print(f"note: {line}", file=sys.stderr)
    print(summary)


def _run_evaluate(args: argparse.Namespace) -> None:
    est = _load_rolled(args.est)
    truth = _load_rolled(args.truth)
    if est.p != truth.p:
        raise CliError(f"graphs disagree on p: {est.p} vs {truth.p}")
    c = confusion(est, truth, include_self_loops=args.self_loops)
    report = metrics(c, args.tpr_mode)

    def fmt(value: float | None) -> str:
        return "" if value is None else repr(value)

    print("tp,fp,tn,fn,tpr,ifpr,fpr,cs,tpr_mode")
    print(
        f"{c.tp},{c.fp},{c.tn},{c.fn},{fmt(report.tpr)},{fmt(report.ifpr)},"
        f"{fmt(report.fpr)},{fmt(report.cs)},{report.tpr_mode}"
    )


def _run_reproduce(args: argparse.Namespace) -> None:
    def split_floats(text: str, label: str) -> tuple[float, ...]:
        try:
            return tuple(float(v) for v in text.split(",") if v.strip())
        except ValueError as exc:
            raise CliError(f"bad {label} list {text!r}") from exc

    try:
        cfg = SweepConfig(
            paradigm=args.paradigm,
            methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
            etas=split_floats(args.etas, "eta"),
            alphas=split_floats(args.alphas, "alpha"),
            reps=args.reps,
            seed=args.seed,
            n=args.n,
            tau=args.tau,
            stride=args.stride,
            window_length=args.L,
            num_subsamples=args.subsamples,
            freq_cutoff=args.cutoff,
            hsic_max_rows=args.hsic_max_rows if args.hsic_max_rows > 0 else None,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out = _prepare_out(args)
    result = run_sweep(cfg)
    paths = write_outputs(result, out)
    print(f"wrote {paths['metrics']}")
    print(f"wrote {paths['frequencies']}")


_RUNNERS = {
    "simulate": _run_simulate,
    "discover": _run_discover,
    "evaluate": _run_evaluate,
    "reproduce": _run_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        defaults: dict[str, object] = {}
        profile = getattr(args, "profile", None)
        if profile is not None:
            defaults.update(_PROFILES[profile])
        if getattr(args, "config", None):
            defaults.update(_parse_config_file(args.config, commands[args.command]))
        if defaults:
            commands[args.command].set_defaults(**defaults)
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        _RUNNERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: leave a machine-readable record
        print(f"error: {exc}", file=sys.stderr)
        out = getattr(args, "out", None)
        if out is not None:
            try:
                Path(out).mkdir(parents=True, exist_ok=True)
                write_text_atomic(
                    Path(out) / "error.json",
                    json.dumps(
                        {"type": type(exc).__name__, "message": str(exc)}, indent=2
                    ) + "\n",
                )
            except OSError:
                pass
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
