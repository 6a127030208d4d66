"""Command-line interface.

Subcommands: recognize, exact, bounds, witness, realize, enumerate, sample,
reduce4, verify-theorem, find-sharp.  Exit codes: 0 on success, 1 when a
verification campaign finds a property violation, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

from .bounds import BoundReport, compare_bounds
from .errors import FormatError, GraphTooLargeError, KPartiteError
from .exact import DEFAULT_SOLVER_CAP, max_clique, max_independent_set
from .formats import (
    DIMACS,
    EDGES,
    GRAPH6,
    encode_csv,
    encode_graph6,
    infer_format,
    load_graph,
    load_graphs,
    read_text,
    save_graph,
    save_graphs,
    write_text,
)
from .graph import Graph, complete_graph, cycle_graph, empty_graph, path_graph, petersen_graph
from .harness import bounds_report_csv, find_sharp_example, verify_theorem
from .isomorphism import check_pattern_cap
from .realizations import (
    enumerate_realizations,
    four_copies,
    havel_hakimi_realize,
    random_switch_walk,
)
from .recognition import is_clique_union, is_complete_multipartite
from .sequences import (
    DegreeSequence,
    PartitionProfile,
    clique_union_profile_from_degrees,
    is_graphical,
    multipartite_profile_from_degrees,
    parse_degree_list,
)
from .witness import witness_clique, witness_independent_set

_PATTERN_RE = re.compile(r"^([pcke])(\d+)$")

# A bound report carries the graph's graph6 code, built from a string of
# n(n - 1)/2 characters: `bounds --input` peaks at about 115 MB of RSS at
# this many vertices, inside a 128 MB budget (README "Caps and complexity").
BOUNDS_MAX_VERTICES = 10_000


def parse_named_graph(name: str) -> Graph:
    """Small named graphs: p<k> path, c<k> cycle, k<k> complete, e<k>
    edgeless, and 'petersen'.  A k above the pattern cap is refused before
    the graph is built."""
    name = name.strip().lower()
    if name == "petersen":
        return petersen_graph()
    match = _PATTERN_RE.match(name)
    if not match:
        raise ValueError(f"unknown graph name {name!r}")
    kind, count = match.group(1), int(match.group(2))
    check_pattern_cap(count)
    if kind == "p":
        return path_graph(count)
    if kind == "c":
        return cycle_graph(count)
    if kind == "k":
        return complete_graph(count)
    return empty_graph(count)


def _parse_profile(text: str) -> PartitionProfile:
    parts = tuple(int(tok) for tok in text.replace(",", " ").split())
    if not parts:
        raise ValueError(f"profile {text!r} has no part sizes")
    return PartitionProfile(parts)


def _profile_json(profile: PartitionProfile | None):
    return None if profile is None else list(profile.parts)


def _read_degree_argument(args) -> DegreeSequence:
    if args.degrees_file:
        return parse_degree_list(read_text(args.degrees_file))
    return parse_degree_list(args.degrees)


def _write_json(payload: dict, out: str) -> None:
    write_text(json.dumps(payload, indent=2) + "\n", out)


def _certificate_json(cert) -> dict:
    return {"kind": cert.kind, "size": cert.size, "vertices": list(cert.sorted_vertices())}


def _cmd_recognize(args) -> int:
    result: dict = {}
    if args.input:
        g = load_graph(args.input, args.format)
        degrees = DegreeSequence(g.degrees())
        result["n"] = g.n
        result["m"] = g.m
        result["complete_multipartite"] = _profile_json(is_complete_multipartite(g))
        result["clique_union"] = _profile_json(is_clique_union(g))
    else:
        degrees = _read_degree_argument(args)
    result["degrees"] = list(degrees)
    result["graphical"] = is_graphical(degrees)
    result["multipartite_profile_from_degrees"] = _profile_json(
        multipartite_profile_from_degrees(degrees)
    )
    result["clique_union_profile_from_degrees"] = _profile_json(
        clique_union_profile_from_degrees(degrees)
    )
    _write_json(result, args.out)
    return 0


def _cmd_exact(args) -> int:
    g = load_graph(args.input, args.format)
    cert = max_clique(g, cap=args.cap) if args.omega else max_independent_set(g, cap=args.cap)
    _write_json(_certificate_json(cert), args.out)
    return 0


def _gather_graphs(path: str, fmt: str | None) -> list[Graph]:
    p = Path(path)
    if p.is_dir():
        graphs: list[Graph] = []
        for child in sorted(p.iterdir()):
            if child.is_file():
                graphs.extend(load_graphs(str(child), fmt))
        return graphs
    return load_graphs(path, fmt)


def _cmd_bounds(args) -> int:
    if args.profiles:
        profiles = [_parse_profile(tok) for tok in args.profiles]
        write_text(bounds_report_csv(profiles), args.out)
        return 0
    graphs = _gather_graphs(args.input, args.format)
    for g in graphs:
        if g.n > BOUNDS_MAX_VERTICES:
            raise GraphTooLargeError(
                f"bounds supports at most {BOUNDS_MAX_VERTICES} vertices per graph, got {g.n}"
            )
    if len(graphs) == 1:
        report = compare_bounds(graphs[0], with_exact=args.exact)
        _write_json(report.to_json_dict(), args.out)
        return 0
    rows = (compare_bounds(g, with_exact=args.exact).to_csv_row() for g in graphs)
    write_text(encode_csv(BoundReport.CSV_COLUMNS, rows), args.out)
    return 0


def _cmd_witness(args) -> int:
    g = load_graph(args.input, args.format)
    degrees = DegreeSequence(g.degrees())
    if args.clique:
        cert = witness_clique(g)
        profile = multipartite_profile_from_degrees(degrees)
    else:
        cert = witness_independent_set(g)
        profile = clique_union_profile_from_degrees(degrees)
    assert profile is not None  # witness would have raised otherwise
    payload = {**_certificate_json(cert), "k": profile.k, "parts": list(profile.parts)}
    _write_json(payload, args.out)
    return 0


def _cmd_realize(args) -> int:
    save_graph(havel_hakimi_realize(_read_degree_argument(args)), args.out, args.format)
    return 0


def _cmd_enumerate(args) -> int:
    fmt = args.format or infer_format(args.out)
    if fmt != GRAPH6:
        raise FormatError(f"enumerate writes graph6 only, one graph per line; got {fmt}")
    degrees = _read_degree_argument(args)
    graphs = list(enumerate_realizations(degrees))
    save_graphs(graphs, args.out)
    print(f"{len(graphs)} realizations of {list(degrees)}", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    g = load_graph(args.input, args.format)
    save_graph(random_switch_walk(g, steps=args.steps, seed=args.seed), args.out, args.format)
    return 0


def _cmd_reduce4(args) -> int:
    save_graph(four_copies(load_graph(args.input, args.format)), args.out, args.format)
    return 0


def _cmd_verify_theorem(args) -> int:
    start = time.perf_counter()
    results = verify_theorem(args.max_n)
    violations = sum(not result.theorem_holds for result in results)
    lines = [result.summary_line() for result in results]
    lines.append(
        f"checked {len(results)} profiles up to total {args.max_n}: {violations} violations"
    )
    write_text("\n".join(lines) + "\n", args.out)
    print(f"elapsed: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 1 if violations else 0


def _cmd_find_sharp(args) -> int:
    profile = _parse_profile(args.profile)
    patterns = []
    if args.patterns:
        patterns = [parse_named_graph(tok) for tok in args.patterns.split(",") if tok]
    g = find_sharp_example(profile, patterns)
    if g is None:
        print("no matching realization", file=sys.stderr)
        return 0
    payload = {
        "graph6": encode_graph6(g),
        "n": g.n,
        "m": g.m,
        "profile": list(profile.parts),
        "k": profile.k,
        # find_sharp_example returns only realizations with alpha = k + 1.
        "alpha": profile.k + 1,
    }
    _write_json(payload, args.out)
    return 0


def _add_degree_options(group) -> None:
    group.add_argument("--degrees", help="comma-separated degree sequence")
    group.add_argument(
        "--degrees-file", help="file holding one line of whitespace-separated degrees"
    )


def build_parser() -> argparse.ArgumentParser:
    # --out everywhere, --format where a graph file is read or written, and a
    # required --input where exactly one graph is read.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="-", help="output path (default: stdout)")
    graph_io = argparse.ArgumentParser(add_help=False, parents=[common])
    graph_io.add_argument(
        "--format",
        choices=[GRAPH6, EDGES, DIMACS],
        default=None,
        help="graph file format, input and output (default: from the suffix; graph6 on stdout)",
    )
    graph_in = argparse.ArgumentParser(add_help=False, parents=[graph_io])
    graph_in.add_argument("--input", required=True)

    parser = argparse.ArgumentParser(
        prog="kpartite",
        description=(
            "Recognition, exact solving, bounds, realization enumeration, and "
            "constructive witnesses for graphs degree-equivalent to clique "
            "unions and complete multipartite graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", parents=[graph_io], help="family membership tests")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="graph file")
    _add_degree_options(group)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("exact", parents=[graph_in], help="exact alpha or omega with witness")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--alpha", action="store_true", help="maximum independent set")
    mode.add_argument("--omega", action="store_true", help="maximum clique")
    p.add_argument("--cap", type=int, default=DEFAULT_SOLVER_CAP, help="vertex cap for the solver")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bounds", parents=[graph_io], help="bound report (JSON or CSV batch)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="graph file or directory")
    group.add_argument(
        "--profiles",
        nargs="+",
        help="clique-size profiles (e.g. 3,3 2,2): CSV campaign over every realization",
    )
    p.add_argument("--exact", action="store_true", help="also solve exactly")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("witness", parents=[graph_in], help="size k+1 witness for family members")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--independent", action="store_true", help="independent set (default)")
    mode.add_argument("--clique", action="store_true", help="clique in the complement family")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("realize", parents=[graph_io], help="one realization of a degree sequence")
    _add_degree_options(p.add_mutually_exclusive_group(required=True))
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser(
        "enumerate", parents=[graph_io], help="all realizations up to isomorphism (graph6)"
    )
    _add_degree_options(p.add_mutually_exclusive_group(required=True))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", parents=[graph_in], help="seeded 2-switch walk")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("reduce4", parents=[graph_in], help="four disjoint copies of a cubic graph")
    p.set_defaults(func=_cmd_reduce4)

    p = sub.add_parser(
        "verify-theorem",
        parents=[common],
        help="enumerate all realizations of every clique-union profile and check alpha",
    )
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser(
        "find-sharp",
        parents=[common],
        help="non-canonical realization with alpha = k+1 containing given induced patterns",
    )
    p.add_argument("--profile", required=True, help="part sizes, e.g. 3,3,4")
    p.add_argument("--patterns", default="", help="comma-separated names, e.g. p4,c5")
    p.set_defaults(func=_cmd_find_sharp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KPartiteError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
