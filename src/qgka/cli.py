"""Command-line entry point: traces, cost tables, sweeps, churn, attacks.

Subcommands
-----------
trace         run one join or leave against a fresh balanced tree and write
              the full JSON event trace
cost          evaluate one closed-form cost at one parameter point (CSV)
sweep-degree  tabulate the average tree cost over a degree grid per xi
simulate      churn simulation, one time-series CSV per backend
attack        detection-probability experiment, JSON report

Every run embeds its resolved configuration in the output header so the
output can be reproduced byte-for-byte.  A ``--config`` file with one
``key = value`` per line supplies defaults; explicit flags override it.
Exit codes: 0 success, 2 usage error, 3 protocol abort, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .adversary import EveStrategy, detection_experiment
from .cost import STAR_COSTS, TREE_COSTS, CostParams, sweep_degree
from .keytree import KeyTree, KeyTreeError
from .protocol import (
    ConsistencyError,
    GroupProtocol,
    ProtocolAbort,
    ProtocolConfig,
)
from .workload import (
    ALL_BACKENDS,
    WorkloadConfig,
    compare_backends,
    series_csv,
)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (need key = value): {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_SUBPARSERS: dict[str, argparse.ArgumentParser] = {}


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill in values from --config for flags not given on the command line."""
    if not getattr(args, "config", None):
        return
    raw = _read_config_file(args.config)
    subparser = _SUBPARSERS[args.command]
    for action in subparser._actions:
        dest = action.dest
        if dest not in raw or not action.option_strings:
            continue
        if any(opt in argv for opt in action.option_strings):
            continue  # explicit flags override the file
        value: object = raw[dest]
        if isinstance(action, argparse._StoreTrueAction):
            value = str(value).lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            value = action.type(value)
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config value {value!r} for {dest} not in {sorted(action.choices)}"
            )
        setattr(args, dest, value)


def _config(args: argparse.Namespace, *skip: str) -> dict:
    """The resolved flags by name, sorted, without unset ones and ``skip``."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "config", "out", *skip) and value is not None
    }


def _header_lines(args: argparse.Namespace) -> list[str]:
    return [f"# {key} = {value}" for key, value in _config(args).items()]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------- #


def _cmd_trace(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    users = [f"u{i + 1}" for i in range(args.group_size)]
    tree = KeyTree.build_balanced(args.degree, users, args.n, rng)
    config = ProtocolConfig(
        key_len=args.n,
        xi=args.xi,
        agent_selection=args.agent_selection,
        record_tree_snapshots=True,
        verify_after=True,
    )
    protocol = GroupProtocol(tree, config, rng)
    if args.event == "join":
        user = args.user or f"u{args.group_size + 1}"
        trace = protocol.join(user)
    else:
        user = args.user or users[-1]
        trace = protocol.leave(user)
    doc = {
        "config": _config(args),
        **trace.to_dict(reveal_keys=args.reveal_keys),
    }
    if args.reveal_keys:
        doc["tree_after"] = protocol.tree.to_dict(include_keys=True)
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    c = trace.counters
    print(
        f"{args.event}: {len(trace.updated_keys)} keys updated, "
        f"{c.qubits_prepared} qubits prepared, {c.encryptions} encryptions, "
        f"{c.rekey_messages} message groups",
        file=sys.stderr,
    )
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    tree = args.protocol in TREE_COSTS
    if tree and args.d is None:
        print("error: tree cost modes require --d", file=sys.stderr)
        return 2
    # raises ValueError, a usage error, outside the cost models' domain
    CostParams(N=args.N, n=args.n, xi=args.xi, d=args.d if tree else CostParams.d)
    if tree:
        value = TREE_COSTS[args.protocol](args.N, args.d, args.n, args.xi)
        d_field = args.d
    else:
        value = STAR_COSTS[args.protocol](args.N, args.n, args.xi)
        d_field = ""
    lines = _header_lines(args)
    lines.append("protocol,N,n,xi,d,cost")
    lines.append(f"{args.protocol},{args.N},{args.n},{args.xi!r},{d_field},{value!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    xi_values = [float(x) for x in args.xi_list.split(",") if x]
    result = sweep_degree(args.N, args.n, xi_values, range(args.d_min, args.d_max + 1))
    lines = _header_lines(args)
    lines.append("mode,N,n,xi,d,cost")
    for xi, d, cost in result.rows():
        lines.append(f"tree-avg,{args.N},{args.n},{xi!r},{d},{cost!r}")
    for xi in xi_values:
        ties = ",".join(str(d) for d in result.near_ties[xi])
        lines.append(f"# argmin xi={xi!r}: d={result.argmin[xi]} (within 1%: {ties})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    config = WorkloadConfig(
        initial_group_size=args.initial,
        degree=args.degree,
        key_len=args.n,
        xi=args.xi,
        lam=getattr(args, "lambda"),
        steps=args.steps,
        p_join=args.p_join,
        seed=args.seed,
        mode=args.mode,
    )
    header = [(k, v) for k, v in config.as_header_items()]
    if backends == ["self"]:
        from .workload import run_simulation

        result = run_simulation(config)
        _emit(series_csv(result.records, header), args.out and str(Path(args.out)))
        return 0
    series = compare_backends(config, backends)
    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    for backend in backends:
        text = series_csv(series[backend], header + [("backend", backend)])
        if outdir:
            (outdir / f"{backend}.csv").write_text(text)
        else:
            sys.stdout.write(f"# backend = {backend}\n{text}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    strategy = EveStrategy(kind=args.strategy.replace("-", "_"))
    rng = np.random.default_rng(args.seed)
    report = detection_experiment(strategy, args.decoys, args.trials, rng)
    doc = {
        "config": _config(args, "csv"),
        "report": report.to_dict(),
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    if args.csv:
        path = Path(args.csv)
        line = report.csv_row() + "\n"
        if path.exists():
            path.write_text(path.read_text() + line)
        else:
            path.write_text(
                "strategy,decoys,trials,detections,per_decoy_error_rate,detection_rate\n"
                + line
            )
    return 0


# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgka",
        description="Dynamic group key agreement over tree key graphs: "
        "protocol traces, cost tables, churn simulations, attack experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--out", type=str, default=None, help="output path")
        p.add_argument(
            "--config", type=str, default=None, help="key = value defaults file"
        )

    p = _SUBPARSERS["trace"] = sub.add_parser(
        "trace", help="run one membership event and dump its trace"
    )
    p.add_argument("event", choices=["join", "leave"])
    p.add_argument("--group-size", type=int, required=True, dest="group_size")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--user", type=str, default=None, help="joining/leaving user id")
    p.add_argument("--xi", type=float, default=0.0, help="decoy proportion")
    p.add_argument("--n", type=int, default=1, help="key length in bits")
    p.add_argument(
        "--agent-selection",
        choices=["random", "first"],
        default="random",
        dest="agent_selection",
    )
    p.add_argument(
        "--reveal-keys",
        action="store_true",
        dest="reveal_keys",
        help="include plaintext key bits in the trace (test use)",
    )
    common(p)
    p.set_defaults(func=_cmd_trace)

    p = _SUBPARSERS["cost"] = sub.add_parser(
        "cost", help="evaluate one closed-form qubit cost"
    )
    p.add_argument(
        "--protocol",
        required=True,
        choices=sorted(STAR_COSTS) + sorted(TREE_COSTS),
    )
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--d", type=int, default=None, help="tree degree (tree modes)")
    common(p)
    p.set_defaults(func=_cmd_cost)

    p = _SUBPARSERS["sweep-degree"] = sub.add_parser(
        "sweep-degree", help="average tree cost over a degree grid"
    )
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--xi-list", type=str, required=True, dest="xi_list")
    p.add_argument("--d-min", type=int, default=2, dest="d_min")
    p.add_argument("--d-max", type=int, default=16, dest="d_max")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = _SUBPARSERS["simulate"] = sub.add_parser(
        "simulate", help="Poisson churn simulation"
    )
    p.add_argument("--initial", type=int, required=True, help="initial group size")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--lambda", type=float, default=1.0, help="Poisson event rate")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--p-join", type=float, default=0.5, dest="p_join")
    p.add_argument("--mode", choices=["sim", "analytic"], default="sim")
    p.add_argument(
        "--backends",
        type=str,
        default="self",
        help="comma list of " + ",".join(ALL_BACKENDS) + ", or 'self' for one run",
    )
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = _SUBPARSERS["attack"] = sub.add_parser(
        "attack", help="eavesdropping detection experiment"
    )
    p.add_argument(
        "--strategy", required=True, choices=["intercept-resend", "cnot"]
    )
    p.add_argument("--decoys", type=int, required=True, help="decoys per run")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--csv", type=str, default=None, help="append a CSV summary row")
    common(p)
    p.set_defaults(func=_cmd_attack)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, argv)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ProtocolAbort as exc:
        print(f"protocol abort: {exc.cause}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyTreeError) as exc:  # flag values validation rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
