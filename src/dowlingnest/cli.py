"""Command-line surface.

Exit codes: 0 success, 1 cross-check disagreement, 2 input error, 3 size or
group-order bound exceeded, or out of memory.  Output for a fixed input file
and flags is byte-stable, except the elapsed time `count` prints after each
method's count ("lattice 93 (0.004s)").
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache
from itertools import islice

from .arrangement import (
    closed_subgroups,
    closure_phi,
    count_nested_sets,
    flat_counts,
    iter_nested_sets,
)
from .errors import (
    AbelianOnly,
    DowlingNestError,
    InstanceError,
    OrderBoundExceeded,
    SizeBoundExceeded,
)
from .forests import Leaf, count_forests, enumerate_forests
from .instancefile import load_instance
from .series import (
    _printed_series,
    dumps_series,
    nested_count_via_series,
    series_cost,
    series_variables,
)

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


def _add_common(parser):
    parser.add_argument("--input", required=True, help="instance JSON file")
    parser.add_argument("--n", type=int, default=None, help="override n from the file")
    parser.add_argument("--cap-lattice", type=int, default=None)
    parser.add_argument("--cap-nested", type=int, default=None)


@cache
def build_parser():
    """The command-line parser, built on first use and then reused: building
    it takes far longer than parsing one argv, and parsing leaves it as it
    was."""
    parser = argparse.ArgumentParser(
        prog="dowlingnest",
        description=(
            "Exact computations for the arrangement of a triple (n, G, V): "
            "closed subgroups, intersection lattice, nested sets, labelled "
            "forests, and counting series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closed-subgroups", help="list subgroups with their closures")
    _add_common(p)

    p = sub.add_parser("lattice", help="intersection lattice summary")
    _add_common(p)

    p = sub.add_parser("nested", help="enumerate nested sets")
    _add_common(p)
    p.add_argument("--limit", type=int, default=20, help="how many sets to print")

    p = sub.add_parser("forests", help="enumerate labelled forests")
    _add_common(p)
    p.add_argument("--limit", type=int, default=20)

    p = sub.add_parser("count", help="count nested sets by one or all methods")
    _add_common(p)
    p.add_argument(
        "--method", choices=("lattice", "forest", "egf"), default="lattice"
    )
    p.add_argument("--all-methods", action="store_true")

    p = sub.add_parser("series", help="emit the counting series as JSON")
    _add_common(p)
    p.add_argument("--max-degree", type=int, default=None)

    p = sub.add_parser("export", help="emit lattice/nested/forests as dot or json")
    _add_common(p)
    p.add_argument("--what", choices=("lattice", "nested", "forests"), required=True)
    p.add_argument("--format", choices=("dot", "json"), default="json")

    p = sub.add_parser("selftest", help="run the invariant cross-check suite")
    _add_common(p)
    parser.commands = sub.choices
    return parser


def parse_argv(argv=None):
    """build_parser().parse_args(argv), with the command's own parser called
    directly unless the command is unknown or leaves arguments over."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv and build_parser().commands.get(argv[0])
    if command:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def cmd_closed_subgroups(inst, args, out):
    cs = closed_subgroups(inst)
    closed_keys = {K.elements for K in cs.members}
    out(f"group order {inst.group.order}, dim V = {inst.rep.dim_v}")
    conj = inst.conj_classes()
    for H in inst.subgroups():
        phi = closure_phi(inst, H)
        fix_dim = inst.rep.fix_true_dim(H)
        cls = conj.class_index(H)
        name = inst.subgroup_label(H)
        if H.elements in closed_keys:
            out(f"closed     {name} fix-dim {fix_dim} class {cls}")
        else:
            out(
                f"not-closed {name} fix-dim {fix_dim} class {cls} "
                f"closure {inst.subgroup_label(phi)}"
            )
    out(f"{len(cs.members)} closed subgroups of {len(inst.subgroups())} total")
    return EXIT_OK


def cmd_lattice(inst, args, out):
    counts = flat_counts(inst)
    out(f"lattice size {sum(counts.values())} in ambient dim {inst.ambient_dim}")
    for d, count in counts.items():
        out(f"dim {d}: {count} elements")
    return EXIT_OK


def _check_limit(args):
    if args.limit < 0:
        raise InstanceError("--limit must be nonnegative")


def cmd_nested(inst, args, out):
    _check_limit(args)
    total = count_nested_sets(inst)
    out(f"{total} nested sets")
    for ns in islice(iter_nested_sets(inst), args.limit):
        out("  " + "; ".join(b.describe(inst) for b in ns.blocks))
    if total > args.limit:
        out(f"  ... {total - args.limit} more")
    return EXIT_OK


def cmd_forests(inst, args, out):
    _check_limit(args)
    forests = enumerate_forests(inst)
    out(f"{len(forests)} forests")
    for forest in forests[: args.limit]:
        parts = []
        for tree in forest.trees:
            parts.append(_tree_text(inst, tree))
        out("  " + " | ".join(parts))
    if len(forests) > args.limit:
        out(f"  ... {len(forests) - args.limit} more")
    return EXIT_OK


def _tree_text(inst, node):
    if isinstance(node, Leaf):
        return str(node.label)
    inner = ",".join(
        f"{rep}:{_tree_text(inst, child)}" for rep, child in node.children
    )
    return f"{inst.subgroup_label(node.subgroup)}({inner})"


def cmd_count(inst, args, out):
    methods = (
        ("lattice", "forest", "egf") if args.all_methods else (args.method,)
    )
    results = {}
    for method in methods:
        start = time.perf_counter()
        if method == "lattice":
            value = count_nested_sets(inst)
        elif method == "forest":
            value = count_forests(inst)
        else:
            if not inst.group.is_abelian:
                if args.all_methods:
                    continue
                raise AbelianOnly("the egf method requires an abelian group")
            _check_series_cost(inst, inst.n, 1, "--n")
            value = nested_count_via_series(inst, inst.n)
        elapsed = time.perf_counter() - start
        results[method] = value
        out(f"{method} {value} ({elapsed:.3f}s)")
    if len(set(results.values())) > 1:
        out("DISAGREEMENT " + " ".join(f"{m}={v}" for m, v in sorted(results.items())))
        return EXIT_DISAGREEMENT
    out(f"count {next(iter(results.values()))}")
    return EXIT_OK


def _check_series_cost(inst, degree, v, flag):
    """SizeBoundExceeded when `series_cost` of the degree is above cap_nested."""
    cost = series_cost(degree, v)
    if cost > inst.cap_nested:
        raise SizeBoundExceeded(
            f"series cost estimate {cost} at {flag} {degree} exceeds the "
            f"cap of {inst.cap_nested}; lower {flag} or raise --cap-nested"
        )


def cmd_series(inst, args, out):
    degree = args.max_degree if args.max_degree is not None else inst.n
    if degree < 0:
        raise InstanceError("--max-degree must be nonnegative")
    if not inst.group.is_abelian:
        raise AbelianOnly("the forest series requires an abelian group")
    _check_series_cost(inst, degree, len(series_variables(inst)) - 1, "--max-degree")
    sys.stdout.write(dumps_series(_printed_series(inst, degree)))  # `out` copies
    return EXIT_OK


def cmd_export(inst, args, out):
    from . import export  # only this command compiles it

    what, fmt = args.what, args.format
    if what == "lattice":
        text = (
            export.lattice_dot(inst)
            if fmt == "dot"
            else export.dumps(export.lattice_json(inst))
        )
    elif what == "nested":
        text = (
            export.nested_dot(inst)
            if fmt == "dot"
            else export.dumps(export.nested_json(inst))
        )
    else:
        text = (
            export.forests_dot(inst)
            if fmt == "dot"
            else export.dumps(export.forests_json(inst))
        )
    out(text.rstrip("\n"))
    return EXIT_OK


def cmd_selftest(inst, args, out):
    from .selftest import run_selftest  # only this command compiles it

    ok = run_selftest(inst, emit=out)
    return EXIT_OK if ok else EXIT_DISAGREEMENT


HANDLERS = {
    "closed-subgroups": cmd_closed_subgroups,
    "lattice": cmd_lattice,
    "nested": cmd_nested,
    "forests": cmd_forests,
    "count": cmd_count,
    "series": cmd_series,
    "export": cmd_export,
    "selftest": cmd_selftest,
}


def main(argv=None):
    args = parse_argv(argv)

    def out(line):
        sys.stdout.write(str(line) + "\n")

    try:
        inst = load_instance(
            args.input,
            n_override=args.n,
            cap_lattice=args.cap_lattice,
            cap_nested=args.cap_nested,
        )
        return HANDLERS[args.command](inst, args, out)
    except (InstanceError, AbelianOnly) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (SizeBoundExceeded, OrderBoundExceeded) as exc:
        sys.stderr.write(f"bound exceeded: {exc}\n")
        return EXIT_BOUND
    except MemoryError:
        sys.stderr.write("bound exceeded: out of memory; try a smaller --n or cap\n")
        return EXIT_BOUND
    except DowlingNestError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DISAGREEMENT


if __name__ == "__main__":
    sys.exit(main())
