"""Command line surface: enumeration, Hasse diagrams, homology runs,
point classification, and the verification suites.

One binary, subcommand style.  Every subcommand supports --format json
with a stable schema; exit status is 0 only when the requested work
succeeded (for `verify`, when every check passed).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cells import cell_of, parse_point_file
from .errors import CapExceeded, DEFAULT_MAX_COUNT, check_labels
from .homology import boundary_matrices, order_complex, poset_homology
from .nord import PosetView, degree, enumerate_nord, hasse
from .verify import (DEFAULT_HOMOLOGY_CASES, DEFAULT_LABELS, SUITES,
                     suite_cells, suite_morphisms, suite_poset,
                     suite_theorem_a, suite_theorem_b)


def _parse_labels(raw: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in raw.split(","))
    if any(not part for part in labels):
        raise ValueError(f"empty label in {raw!r}")
    check_labels(labels)
    return labels


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_enumerate(args: argparse.Namespace) -> int:
    labels = _parse_labels(args.labels)
    orderings = enumerate_nord(labels, args.n, max_count=args.max_morphisms)
    if args.format == "json":
        payload = {
            "n": args.n, "labels": list(labels), "count": len(orderings),
            "orderings": [dict(o.to_json(), text=o.text(), degree=degree(o))
                          for o in orderings],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "csv":
        lines = ["text,degree"]
        lines += [f"{o.text()},{degree(o)}" for o in orderings]
        _emit("\n".join(lines), args.output)
    else:
        _emit("\n".join(f"{o.text()}\t{degree(o)}" for o in orderings)
              or "(no orderings)", args.output)
    return 0


def cmd_hasse(args: argparse.Namespace) -> int:
    labels = _parse_labels(args.labels)
    view = PosetView.of_orderings(labels, args.n,
                                  max_count=args.max_morphisms)
    nodes = [o.text() for o in view.elements]
    edges = [(a.text(), b.text()) for a, b in hasse(view)]
    if args.format == "json":
        payload = {"n": args.n, "labels": list(labels), "nodes": nodes,
                   "edges": [list(e) for e in edges]}
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "dot":
        lines = ["digraph hasse {"]
        lines += [f"  {_dot_quote(node)};" for node in nodes]
        lines += [f"  {_dot_quote(a)} -> {_dot_quote(b)};" for a, b in edges]
        lines.append("}")
        _emit("\n".join(lines), args.output)
    else:
        lines = [f"nodes: {len(nodes)}", f"edges: {len(edges)}"]
        lines += [f"{a} -> {b}" for a, b in edges]
        _emit("\n".join(lines), args.output)
    return 0


def cmd_homology(args: argparse.Namespace) -> int:
    labels = _parse_labels(args.labels)
    view = PosetView.of_orderings(labels, args.n)
    if args.format == "csv":
        cx = order_complex(view, args.max_chains)
        cc = boundary_matrices(cx)
        lines = ["degree,row,col,value"]
        for k in range(1, len(cc.dims)):
            for col, column in enumerate(cc.boundaries[k - 1]):
                for row, value in sorted(column.items()):
                    lines.append(f"{k},{row},{col},{value}")
        _emit("\n".join(lines), args.output)
        return 0
    result = poset_homology(view, args.max_chains)
    if args.format == "json":
        payload = dict(result.to_json(), n=args.n, labels=list(labels))
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = [
            f"betti: {list(result.betti)}",
            f"torsion: {[list(t) for t in result.torsion]}",
            f"euler: {result.euler}",
            f"simplices: {list(result.simplex_counts)}",
        ]
        _emit("\n".join(lines), args.output)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    if args.points == "-":
        text = sys.stdin.read()
    else:
        with open(args.points, encoding="utf-8") as handle:
            text = handle.read()
    config = parse_point_file(text)
    if args.n is not None and config.n != args.n:
        raise ValueError(
            f"point file has {config.n} coordinates per row, --n is {args.n}")
    ordering = cell_of(config)
    if args.format == "json":
        payload = dict(ordering.to_json(), text=ordering.text(),
                       degree=degree(ordering))
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(ordering.text() or "(empty configuration)", args.output)
    return 0


def _verify_kwargs(args: argparse.Namespace) -> dict:
    labels = _parse_labels(args.labels) if args.labels else None
    pool = labels if labels else DEFAULT_LABELS
    levels = (args.n,) if args.n is not None else (1, 2, 3)
    if args.suite == "theorem-a":
        if args.n is not None and labels:
            cases = ((args.n, len(labels)),)
        elif args.n is not None:
            cases = tuple(c for c in DEFAULT_HOMOLOGY_CASES
                          if c[0] == args.n) or ((args.n, 2), (args.n, 3))
        elif labels:
            cases = tuple((m, len(labels)) for m in levels)
        else:
            cases = DEFAULT_HOMOLOGY_CASES
        return {"cases": cases, "max_chains": args.max_chains,
                "label_pool": pool}
    if args.suite == "morphisms":
        return {"levels": levels, "max_edges": args.max_edges,
                "max_morphisms": args.max_morphisms}
    if args.suite == "theorem-b":
        return {"levels": levels, "label_pool": pool}
    if args.suite == "poset":
        sizes = tuple(range((len(labels) if labels else 4) + 1))
        return {"sizes": sizes, "levels": levels, "label_pool": pool}
    sizes = len(labels) if labels else 3
    return {"max_size": sizes, "levels": levels, "samples": args.samples,
            "seed": args.seed, "label_pool": pool}


def cmd_verify(args: argparse.Namespace) -> int:
    report = SUITES[args.suite](**_verify_kwargs(args))
    if args.format == "json":
        _emit(json.dumps(report, indent=2), args.output)
    else:
        lines = [f"suite: {report['suite']}"]
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(
                f"{status} {check['name']} ({check['checked']} checked)")
        lines.append("result: " + ("PASS" if report["passed"] else "FAIL"))
        _emit("\n".join(lines), args.output)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaconf",
        description="Level-tree categories, n-ordering posets, and their "
                    "homology, with exhaustive verification sweeps.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, formats, default_format="text"):
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--output", default=None, metavar="FILE")

    def orderings_of(p, cap, counted):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--labels", required=True, metavar="a,b,c")
        p.add_argument(cap, type=int, default=DEFAULT_MAX_COUNT,
                       help=f"cap on the number of {counted}")

    p = sub.add_parser("enumerate", help="list all n-orderings of a label set")
    orderings_of(p, "--max-morphisms", "orderings")
    common(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("hasse", help="cover relation of the n-ordering poset")
    orderings_of(p, "--max-morphisms", "orderings")
    common(p, ["text", "json", "dot"], default_format="dot")
    p.set_defaults(func=cmd_hasse)

    p = sub.add_parser("homology",
                       help="integral homology of the order complex")
    orderings_of(p, "--max-chains", "chains in the order complex")
    common(p, ["text", "json", "csv"])
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("classify",
                       help="Fox-Neuwirth cell of a point configuration")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--points", required=True, metavar="FILE",
                   help="point file, one 'label x1 .. xn' per line; - reads "
                        "stdin")
    common(p, ["text", "json"])
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--labels", default=None, metavar="a,b,c")
    p.add_argument("--max-edges", type=int, default=6,
                   help="morphisms: largest edge count of the trees swept")
    p.add_argument("--max-morphisms", type=int, default=DEFAULT_MAX_COUNT,
                   help="morphisms: cap on the morphisms built per tree pair")
    p.add_argument("--max-chains", type=int, default=DEFAULT_MAX_COUNT,
                   help="theorem-a: cap on the chains of each order complex")
    p.add_argument("--samples", type=int, default=1000,
                   help="cells: random configurations per (n, r) case")
    p.add_argument("--seed", type=int, default=0)
    common(p, ["text", "json"])
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
