"""Command-line front end: generate, analyze, ensemble, export.

Exit codes: 0 success, 1 internal or validation failure (bad input file,
refused expansion, generation failure, out of memory), 2 usage error (bad
flags, unknown property names).  Every error is one `hiernet: ...` line on
stderr, and usage errors are found before any file is read.  All output is
deterministic for fixed flags: rerunning a command with the same seed
reproduces every artifact byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    HiernetError,
    ParamError,
    _whole,
    deserialize,
    serialize_chunks,
)
from .gen import GenParams, generate_network
from . import analytics as _an
from .oracle import DEFAULT_EXPANSION_CAP, edge_list_text
from .ensemble import (
    PROPERTIES,
    PROPERTY_TABLE,
    EnsembleSpec,
    check_properties,
    csv_rows,
    json_value,
    report_csv,
    report_json,
    run_ensemble,
    summary_json,
)
from . import __version__


def _one_root(prop):
    # a network property gives one value per root, and a model read from a file has one
    return lambda model: prop(model)[0]


# what `analyze` reports: of the whole network, or with --node of one node
_NETWORK_OPS = {**{name: _one_root(prop) for name, prop in PROPERTY_TABLE.items()},
                "wedges": _an.wedge_count}
_NODE_OPS = {
    "degree": _an.node_degree,
    "c3": _an.triangles_at_node,
    "clustering": _an.clustering_coefficient,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParamError, so main prints them as one line like any other."""

    def error(self, message):
        raise ParamError(message)


def _names(text: str) -> list[str]:
    return [s for s in text.split(",") if s]


def _add_gen_flags(sub: argparse.ArgumentParser) -> None:
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--nodes", type=int, metavar="N",
                      help="draw an irregular network on N nodes")
    mode.add_argument("--levels", type=int, metavar="G",
                      help="draw an irregular network with G levels")
    mode.add_argument("--regular", type=int, metavar="G",
                      help="regular network with G levels (N = p**G)")
    sub.add_argument("--p", type=int, required=True, help="children per vertex cap (>= 2)")
    sub.add_argument("--mu", type=float, required=True,
                     help="link density exponent; bit probability is size**(-mu)")
    sub.add_argument("--seed", type=int, required=True, help="base seed (>= 0)")


def _gen_params(args) -> GenParams:
    if args.nodes is not None:
        return GenParams(mode="by-nodes", p=args.p, mu=args.mu, seed=args.seed, n=args.nodes)
    if args.levels is not None:
        return GenParams(mode="by-levels", p=args.p, mu=args.mu, seed=args.seed,
                         gamma=args.levels)
    return GenParams(mode="regular", p=args.p, mu=args.mu, seed=args.seed,
                     gamma=args.regular)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hiernet",
        description="Generate and analyze random block-hierarchical networks.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="draw one network and write it as BHNET text")
    _add_gen_flags(g)
    g.add_argument("--out", required=True, help="output BHNET path")

    a = subs.add_parser("analyze", help="compute properties of a stored network")
    a.add_argument("--input", required=True, help="BHNET file to read")
    a.add_argument("--props", required=True,
                   help="comma list; network: " + ",".join(_NETWORK_OPS)
                        + "; with --node: " + ",".join(_NODE_OPS))
    a.add_argument("--node", type=int, default=None, metavar="X",
                   help="report per-node properties of node X instead")
    a.add_argument("--format", choices=("json", "csv"), default="json")
    a.add_argument("--out", default=None, help="output path (default stdout)")

    e = subs.add_parser("ensemble", help="generate many copies and aggregate properties")
    _add_gen_flags(e)
    e.add_argument("--copies", type=int, required=True, help="number of copies (>= 1)")
    e.add_argument("--props", required=True, help="comma list of " + ",".join(PROPERTIES))
    e.add_argument("--format", choices=("json", "csv"), default="json")
    e.add_argument("--out", default=None, help="output path (default stdout); csv also "
                   "writes <out>.summary.json")
    e.add_argument("--workers", type=int, default=1,
                   help="worker processes; never changes the results")

    x = subs.add_parser("export", help="expand a stored network to an edge list")
    x.add_argument("--input", required=True, help="BHNET file to read")
    x.add_argument("--out", required=True, help="edge list output path")
    x.add_argument("--cap", type=int, default=DEFAULT_EXPANSION_CAP,
                   help="refuse networks with more nodes than this")
    return ap


def cmd_generate(args) -> int:
    model = generate_network(_gen_params(args))
    chunks = serialize_chunks(model)  # checks the model before the file is opened
    with open(args.out, "wb") as fh:
        fh.writelines(chunks)
    edges = _an.edge_count(model)
    print(f"n={model.shape.n} gamma={model.shape.gamma} edges={edges}")
    return 0


def cmd_analyze(args) -> int:
    if args.node is None:
        ops, kind, extra = _NETWORK_OPS, "property", ()
    else:
        ops, kind, extra = _NODE_OPS, "per-node property", (args.node,)
    names = check_properties(_names(args.props), ops, kind)
    with open(args.input, "rb") as fh:
        model = deserialize(fh.read())
    values = {name: ops[name](model, *extra) for name in names}
    if args.format == "csv":
        _write_out(csv_rows((1, name, v) for name, v in values.items()), args.out)
    else:
        _write_out(report_json_single(values), args.out)
    return 0


def report_json_single(values: dict) -> str:
    doc = {name: json_value(v) for name, v in values.items()}
    return json.dumps(doc, indent=2) + "\n"


def cmd_ensemble(args) -> int:
    # EnsembleSpec and run_ensemble refuse bad properties, copies and workers
    spec = EnsembleSpec(params=_gen_params(args), copies=args.copies,
                        properties=_names(args.props))
    report = run_ensemble(spec, workers=args.workers)
    if args.format == "csv":
        _write_out(report_csv(report), args.out)
        if args.out is not None:
            _write_out(summary_json(report), args.out + ".summary.json")
    else:
        _write_out(report_json(report), args.out)
    return 0


def cmd_export(args) -> int:
    cap = _whole(args.cap, "cap", 0)  # a usage error, refused before the file is read
    with open(args.input, "rb") as fh:
        model = deserialize(fh.read())
    text = edge_list_text(model, cap=cap)
    _write_out(text, args.out)
    edges = text.count("\n")
    print(f"edges={edges}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "ensemble":
            return cmd_ensemble(args)
        return cmd_export(args)
    except SystemExit as exc:  # --help and --version print, then exit 0
        return exc.code or 0
    except ParamError as exc:
        print(f"hiernet: parameter error: {exc}", file=sys.stderr)
        return 2
    except HiernetError as exc:
        print(f"hiernet: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"hiernet: i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"hiernet: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
