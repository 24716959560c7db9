"""Command-line front end.

Every subcommand delegates to one library operation and writes deterministic
plain-text, JSON, DOT, or CSV to stdout (fixed sort orders everywhere, no
terminal colour, so NO_COLOR needs no special handling).  Exit codes:
0 = yes/success, 1 = no or domain failure, 2 = usage error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from typing import Iterator

import numpy as np

from .combinat import check_ground, parse_dim_vector, subset_str
from .freeprod import (
    build_one_quiver,
    component_count,
    is_iss_smooth,
    iss_dim,
    one_quiver_euler_closed,
    orbit_representatives,
    parse_characters,
    rep2_census,
    simple_alpha_report,
    treelike_census,
)
from .localquiver import (
    degeneration_graph,
    enumerate_settings,
    graph_json_obj,
    local_quiver,
    setting_json_obj,
    smooth_point,
    young_diagram_slice,
)
from .quiver import Quiver, support


def _cell_texts(m: np.ndarray, texts):
    """A function from rows (or parts of rows) of the integer matrix m to
    object arrays of their cell texts.  texts(values) turns the sorted values
    that may occur into their texts once: every integer from min to max when
    there are no more of them than cells, so a dense matrix of small values
    costs no sorted copy, else the distinct values."""
    lo, hi = (int(m.min()), int(m.max())) if m.size else (0, -1)
    values = np.arange(lo, hi + 1) if hi - lo < m.size else np.unique(m)
    table = np.array(texts(values.tolist()), dtype=object)
    return lambda cells: table[np.searchsorted(values, cells)]


def format_matrix(m: np.ndarray) -> Iterator[str]:
    """The lines of an integer grid, entries right-aligned to the widest
    one, yielded row by row so the whole text is never held at once."""
    if m.size == 0:
        return

    def padded(values: list[int]) -> list[str]:
        texts = [str(v) for v in values]
        width = max(map(len, texts))
        return [t.rjust(width) for t in texts]

    cells = _cell_texts(m, padded)
    for row in m:
        yield " ".join(cells(row).tolist())


def write_json(obj) -> None:
    """Write json.dumps(obj, indent=2) and a newline to stdout in batches of
    encoder chunks, so the whole text is never held in memory at once."""
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := "".join(itertools.islice(chunks, 1 << 16)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def write_quiver_json(q: Quiver) -> None:
    """Write json.dumps(q.to_json_obj(), indent=2) and a newline to stdout
    one arrow row at a time (q has at least one vertex)."""
    out = sys.stdout
    cells = _cell_texts(q.arrows, lambda values: [f"      {v}" for v in values])
    out.write(f'{{\n  "v": {q.v},\n  "arrows": [')
    sep = "\n"
    for row in q.arrows:
        out.write(sep + "    [\n" + ",\n".join(cells(row).tolist()) + "\n    ]")
        sep = ",\n"
    out.write("\n  ]\n}\n")


def quiver_dot(q: Quiver, labels: list[str], name: str = "quiver") -> Iterator[str]:
    """The DOT text of q in pieces, one per vertex row of arrows, so the
    whole text is never held at once.  Each arrow line is joined from three
    prebuilt texts (tail, head, count), so no text is formatted per arrow."""
    yield f"digraph {name} {{\n"
    yield "".join(f'  v{i} [label="{label}"];\n' for i, label in enumerate(labels))
    heads = np.array([f'v{j} [label="' for j in range(q.v)], dtype=object)
    counts = _cell_texts(q.arrows, lambda values: [f'{k}"];\n' for k in values])
    for i, row in enumerate(q.arrows):
        js = np.flatnonzero(row)
        line = np.empty((js.size, 3), dtype=object)
        line[:, 0] = f"  v{i} -> "
        line[:, 1] = heads[js]
        line[:, 2] = counts(row[js])
        yield "".join(line.ravel().tolist())
    yield "}\n"


def graph_dot(g) -> str:
    lines = ["digraph degeneration {", "  rankdir=TB;", "  node [shape=box, style=filled];"]
    for i, s in enumerate(g.nodes):
        colour = "palegreen" if smooth_point(s) else "lightpink"
        lines.append(f'  n{i} [label="{s.id()}", fillcolor="{colour}"];')
    for i, j in g.edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _subset_names(n: int) -> list[str]:
    """subset_str of every subset of {1..n}, indexed by bitmask; refuses n
    outside [1, MAX_GROUND] before building anything."""
    check_ground(n)
    return [subset_str(a) for a in range(1 << n)]


def _setting_text(s) -> str:
    qs = local_quiver(s)
    reduced = support(qs.quiver, qs.dims)
    out = [f"{s.id()}  sum_k={s.k_total}  smooth={'yes' if smooth_point(s) else 'no'}"]
    out.append("  dims: " + ",".join(str(d) for d in reduced.dims))
    out.extend("  " + row for row in format_matrix(reduced.quiver.arrows))
    return "\n".join(out)


def cmd_components(args) -> int:
    count = component_count(args.n, args.m)
    reps = orbit_representatives(args.n, args.m) if args.orbits else []
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if args.orbits:
            writer.writerow(["alpha"])
            for rep in reps:
                writer.writerow([str(rep)])
        else:
            writer.writerow(["n", "m", "components"])
            writer.writerow([args.n, args.m, count])
        return 0
    print(count)
    if args.orbits:
        print(len(reps))
        for rep in reps:
            print(str(rep))
    return 0


def cmd_one_quiver(args) -> int:
    if args.format == "matrix":
        sys.stdout.writelines(row + "\n" for row in format_matrix(one_quiver_euler_closed(args.n)))
        return 0
    q = build_one_quiver(args.n)
    if args.format == "json":
        write_quiver_json(q)
    else:
        sys.stdout.writelines(quiver_dot(q, _subset_names(args.n), name="one_quiver"))
    return 0


def cmd_graph(args) -> int:
    g = degeneration_graph(args.n, args.m)
    if args.format == "json":
        write_json(graph_json_obj(g))
    elif args.format == "dot":
        sys.stdout.write(graph_dot(g))
    else:
        print(f"degeneration graph n={g.n} m={g.m}: {len(g.nodes)} nodes, {len(g.edges)} edges")
        for s in g.nodes:
            print(_setting_text(s))
        for i, j in g.edges:
            print(f"{g.nodes[i].id()} -> {g.nodes[j].id()}")
    return 0


def cmd_local(args) -> int:
    if args.young:
        try:
            shape = tuple(int(x) for x in args.young.split(","))
        except ValueError:
            raise ValueError(f"--young wants comma-separated row lengths, got {args.young!r}")
        settings = young_diagram_slice(args.n, args.m, shape).nodes
    else:
        settings = enumerate_settings(args.n, args.m)
    if args.format == "json":
        write_json([setting_json_obj(s) for s in settings])
    else:
        for s in settings:
            print(_setting_text(s))
        print(f"settings: {len(settings)}")
    return 0


def cmd_simple(args) -> int:
    alpha = parse_dim_vector(args.alpha)
    verdict, lines = simple_alpha_report(alpha)
    for line in lines:
        print(line)
    print(f"simple: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def cmd_iss_dim(args) -> int:
    print(iss_dim(parse_dim_vector(args.alpha)))
    return 0


def cmd_smooth_component(args) -> int:
    alpha = parse_dim_vector(args.alpha)
    verdict = is_iss_smooth(alpha)
    mixed = sum(1 for p, q in alpha.pairs if p and q)
    print(f"alpha = {alpha}: {mixed} mixed pair(s) after flips (smooth needs <= 2)")
    print(f"smooth: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def cmd_rep2(args) -> int:
    rows = rep2_census(args.n)
    names = _subset_names(args.n)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["A", "B", "k", "rep_dim", "quot_dim", "singularities"])
        for r in rows:
            writer.writerow(
                [names[r.a_mask], names[r.b_mask], r.k, r.rep_dim, r.quot_dim, r.singularities]
            )
        return 0
    print("A\tB\tk\trep_dim\tquot_dim\tsingularities\tlocal_type")
    total = 0
    for r in rows:
        total += 1
        print(
            f"{names[r.a_mask]}\t{names[r.b_mask]}\t{r.k}\t{r.rep_dim}"
            f"\t{r.quot_dim}\t{r.singularities}\t{r.local_type or '-'}"
        )
    print(f"total components: {total}")
    return 0


def cmd_treelike(args) -> int:
    counts = treelike_census(args.n)
    for label, count in counts.items():
        print(f"type {label}: {count} instances")
    print(f"distinct types: {len(counts)}")
    return 0


def cmd_canon(args) -> int:
    chars = parse_characters(args.chars, args.n)
    canonical = chars.canonical()
    print(str(canonical))
    print(f"alpha: {canonical.dim_vector()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2quiver",
        description="Exact computations for representation components of free products of order-2 groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("components", help="component and orbit census at level m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--orbits", action="store_true", help="also list orbit representatives")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("one-quiver", help="the quiver on the 2^n characters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["matrix", "dot", "json"], default="matrix")
    p.set_defaults(func=cmd_one_quiver)

    p = sub.add_parser("graph", help="degeneration graph of local settings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("local", help="list local settings and their quivers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--young", help="restrict to one diagram, e.g. 3,3,3")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("simple", help="simplicity of a dimension vector (exit 0 = simple)")
    p.add_argument("--alpha", required=True, help="e.g. 2,1;2,1;2,1 or (4,0)*2;2,2;2,2")
    p.set_defaults(func=cmd_simple)

    p = sub.add_parser("iss-dim", help="dimension of the moduli of semisimples")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_iss_dim)

    p = sub.add_parser("smooth-component", help="smoothness of a component's moduli (exit 0 = smooth)")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_smooth_component)

    p = sub.add_parser("rep2", help="census of level-2 components")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_rep2)

    p = sub.add_parser("treelike", help="census of tree-like character subquivers")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_treelike)

    p = sub.add_parser("canon", help="chain normal form of a character sum")
    p.add_argument("--chars", required=True, help="e.g. '{1}+{2}' or '{}^2+{1,2,3}'")
    p.add_argument("--n", type=int, help="ground-set size (default: largest element)")
    p.set_defaults(func=cmd_canon)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
