"""Command-line front end.

Every subcommand delegates to one library operation and writes deterministic
plain-text, JSON, DOT, or CSV to stdout (fixed sort orders everywhere, no
terminal colour, so NO_COLOR needs no special handling).  Exit codes:
0 = yes/success, 1 = no or domain failure, 2 = usage error.

Each command imports the library functions it calls, and json and csv are
imported only where they are written, so a command loads only the modules
it runs.
"""

from __future__ import annotations

import argparse
import itertools
import operator
import sys
from typing import Iterator


def format_matrix(rows: list[list[int]]) -> Iterator[str]:
    """The lines of an integer grid given as int rows, entries right-aligned
    to the widest one, yielded row by row.  Each distinct value's text is
    made once."""
    if not rows or not rows[0]:
        return
    values = set().union(*rows)
    width = max(len(str(min(values))), len(str(max(values))))
    texts = {x: str(x).rjust(width) for x in values}
    for row in rows:
        yield " ".join(map(texts.__getitem__, row))


def hamming_rows(n: int, texts: list[str], sep: str) -> Iterator[str]:
    """The rows of the 2**n x 2**n grid whose cell (i, j) is
    texts[popcount(i ^ j)], its cells joined by sep: freeprod.hamming_split
    joins each low-half block row once, and a row joins its picks."""
    from .freeprod import hamming_split

    for picked in hamming_split(n, lambda rows: [sep.join([texts[d] for d in ds]) for ds in rows]):
        yield from map(sep.join, zip(*picked))


def one_quiver_dot(n: int) -> Iterator[str]:
    """The DOT text of the character quiver on the 2**n subsets, in pieces,
    one per vertex row of arrows: |A delta B| - 1 arrows from A to B where
    |A delta B| >= 2.  Column j's arrow texts, one per distance, are made
    once; a row picks them by the distances of freeprod.hamming_split, drops
    those below 2 and joins the rest with its own tail text."""
    from .freeprod import hamming_split

    cells = [[f'v{j} [label="{d - 1}"];\n' if d >= 2 else "" for d in range(n + 1)] for j in range(1 << n)]
    width = 1 << n // 2  # the columns of one low-half block
    columns = [cells[j:j + width] for j in range(0, 1 << n, width)]
    yield "digraph one_quiver {\n"
    yield "".join(f'  v{i} [label="{label}"];\n' for i, label in enumerate(_subset_names(n)))
    for i, dists in enumerate(itertools.chain.from_iterable(zip(*p) for p in hamming_split(n, list))):
        row = itertools.chain.from_iterable(map(map, itertools.repeat(operator.getitem), columns, dists))
        yield f"  v{i} -> ".join(["", *filter(None, row)])
    yield "}\n"


def write_json(obj) -> None:
    """Write json.dumps(obj, indent=2) and a newline to stdout.  A top-level
    list goes out one item at a time, and a top-level dict one entry at a
    time with each list value one item at a time, in batches, so the whole
    text is never held in memory at once.

    Strings, ints, bools, None, lists, tuples and dicts with string keys are
    written directly, a list of ints in one join; anything else is handed
    to json.dumps and re-indented."""
    from json.encoder import encode_basestring_ascii as quote

    def text(o, nl: str) -> str:
        """json.dumps(o, indent=2) for a value on a line that starts with nl."""
        if isinstance(o, str):
            return quote(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        inner = nl + "  "
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = map(int.__repr__, o) if set(map(type, o)) == {int} else [text(x, inner) for x in o]
            return f"[{inner}{(',' + inner).join(items)}{nl}]"
        if isinstance(o, dict) and all(isinstance(key, str) for key in o):
            if not o:
                return "{}"
            entries = [f"{quote(key)}: {text(value, inner)}" for key, value in o.items()]
            return f"{{{inner}{(',' + inner).join(entries)}{nl}}}"
        import json

        return json.dumps(o, indent=2).replace("\n", nl)

    def items(seq, nl: str) -> Iterator[str]:
        inner = nl + "  "
        sep = "[" + inner
        for x in seq:
            yield sep + text(x, inner)
            sep = "," + inner
        yield nl + "]"

    def pieces() -> Iterator[str]:
        if isinstance(obj, (list, tuple)) and obj:
            yield from items(obj, "\n")
        elif isinstance(obj, dict) and obj and all(isinstance(key, str) for key in obj):
            sep = "{\n  "
            for key, value in obj.items():
                yield f"{sep}{quote(key)}: "
                if isinstance(value, (list, tuple)) and value:
                    yield from items(value, "\n  ")
                else:
                    yield text(value, "\n  ")
                sep = ",\n  "
            yield "\n}"
        else:
            yield text(obj, "\n")

    stream = pieces()
    while batch := "".join(itertools.islice(stream, 1 << 10)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def graph_dot(g) -> str:
    from .localquiver import smooth_point

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
    from .combinat import check_ground, subset_str

    n = check_ground(n)
    return [subset_str(a) for a in range(1 << n)]


def _setting_text(s) -> str:
    from .localquiver import local_quiver_rows, smooth_point

    rows, dims = local_quiver_rows(s, reduced=True)
    out = [f"{s.id()}  sum_k={s.k_total}  smooth={'yes' if smooth_point(s) else 'no'}"]
    out.append("  dims: " + ",".join(map(str, dims)))
    out.extend("  " + row for row in format_matrix(rows))
    return "\n".join(out)


def cmd_components(args) -> int:
    from .freeprod import component_count, orbit_representatives

    count = component_count(args.n, args.m)
    reps = orbit_representatives(args.n, args.m) if args.orbits else []
    if args.format == "csv":
        import csv

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
    """The Euler matrix 1 - |A delta B| (matrix) and the arrows
    max(|A delta B| - 1, 0) (json) are written row by row from the Hamming
    closed form, and so are the arrows of dot."""
    from .freeprod import check_one_quiver

    n = check_one_quiver(args.n)
    out = sys.stdout
    if args.format == "matrix":
        width = len(str(1 - n))  # the widest entry: 1 - n, or 0 and 1 at n = 1
        texts = [str(1 - d).rjust(width) for d in range(n + 1)]
        out.writelines(row + "\n" for row in hamming_rows(n, texts, " "))
    elif args.format == "json":
        # json.dumps({"v": ..., "arrows": ...}, indent=2) and a newline
        texts = [f"      {max(d - 1, 0)}" for d in range(n + 1)]
        out.write(f'{{\n  "v": {1 << n},\n  "arrows": [')
        sep = "\n"
        for row in hamming_rows(n, texts, ",\n"):
            out.write(f"{sep}    [\n{row}\n    ]")
            sep = ",\n"
        out.write("\n  ]\n}\n")
    else:
        out.writelines(one_quiver_dot(n))
    return 0


def cmd_graph(args) -> int:
    from .localquiver import degeneration_graph, graph_json_obj

    g = degeneration_graph(args.n, args.m)
    if args.format == "json":
        write_json(graph_json_obj(g))
    elif args.format == "dot":
        sys.stdout.write(graph_dot(g))
    else:
        print(f"degeneration graph n={g.n} m={g.m}: {len(g.nodes)} nodes, {len(g.edges)} edges")
        for s in g.nodes:
            print(_setting_text(s))
        ids = [s.id() for s in g.nodes]
        for i, j in g.edges:
            print(f"{ids[i]} -> {ids[j]}")
    return 0


def cmd_local(args) -> int:
    from .localquiver import enumerate_settings, setting_json_obj, young_diagram_slice

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
    from .combinat import parse_dim_vector
    from .freeprod import simple_alpha_report

    verdict, lines = simple_alpha_report(parse_dim_vector(args.alpha))
    print(*lines, sep="\n")
    print(f"simple: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def cmd_iss_dim(args) -> int:
    from .combinat import parse_dim_vector
    from .freeprod import iss_dim

    print(iss_dim(parse_dim_vector(args.alpha)))
    return 0


def cmd_smooth_component(args) -> int:
    from .combinat import parse_dim_vector
    from .freeprod import _smooth_core

    alpha = parse_dim_vector(args.alpha)
    verdict, mixed = _smooth_core(alpha)
    print(f"alpha = {alpha}: {mixed} mixed pair(s) after flips (smooth needs <= 2)")
    print(f"smooth: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def cmd_rep2(args) -> int:
    """One row per level-2 component (A, B): A ascending and B over the
    subsets of the complement ascending.  A row is the names of A and B and
    a tail that depends on k = |A| alone, so each A's rows are written in
    one piece: the B names joined by the tail and A's name."""
    from .freeprod import rep2_values

    n = args.n
    names = _subset_names(n)
    csv_out = args.format == "csv"
    sep = "," if csv_out else "\t"
    if csv_out:
        names = [f'"{t}"' if "," in t else t for t in names]  # csv's minimal quoting
    header = ["A", "B", "k", "rep_dim", "quot_dim", "singularities"]
    print(sep.join(header if csv_out else header + ["local_type"]))
    tails = []
    for k in range(n + 1):
        *counts, local = rep2_values(k)
        fields = [k, *counts] if csv_out else [k, *counts, local or "-"]
        tails.append("".join(sep + str(x) for x in fields) + "\n")
    out = sys.stdout
    for a in range(1 << n):
        subs = [0]  # the subsets of the complement of A, ascending
        for i in range(n):
            if not a >> i & 1:
                subs += [b | 1 << i for b in subs]
        head, tail = names[a] + sep, tails[a.bit_count()]
        out.write(head + (tail + head).join([names[b] for b in subs]) + tail)
    if not csv_out:
        print(f"total components: {3**n}")
    return 0


def cmd_treelike(args) -> int:
    from .freeprod import treelike_census

    counts = treelike_census(args.n)
    for label, count in counts.items():
        print(f"type {label}: {count} instances")
    print(f"distinct types: {len(counts)}")
    return 0


def cmd_canon(args) -> int:
    from .freeprod import parse_characters

    canonical = parse_characters(args.chars, args.n).canonical()
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
