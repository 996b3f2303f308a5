"""Command-line front end for verification runs, decompositions, and tables.

Subcommands:

    verify <target>           inclusion check for a named machine family
    crossvalidate             machine accept set vs direct sums at one length
    decompose [--mode M] N    certified decomposition of one integer
    exceptions --bound B      integers with no four-square decomposition
    counts --bound B          how many integers need k squares, k = 1..4
    density --bound B         two-square sum density statistics
    optimality --max-n K      short representations of odd powers of two
    uniqueness --n K          distinctness of cross-length square sums
    export <machine>          DOT or automata-script rendering of a machine

Exit codes: 0 success / assertion holds, 1 assertion failed, 2 not
representable, 3 usage error, 4 internal check failed.  `--json` switches
every command to line-delimited JSON records carrying the same content as
the text output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import product
from typing import Iterable, Sequence

from .automata import includes, to_automata_script, to_dot
from .folding import render_word, syntax_checker, unfold
from .lemma_machines import (
    FAMILY_NAMES,
    TARGETS,
    Summand,
    accept_set,
    cover_runtime,
    family_profiles,
    fixed_machine,
)
from .oracle import (
    MAX_SUMMANDS,
    exceptions_exact_four_positive,
    exceptions_four_squares,
    four_squares_counts,
    lower_density_estimate,
    optimality_check,
    profile_sum_mask,
    sumset_uniqueness,
    two_squares_density,
)
from .witness import (
    InvalidInput,
    NotRepresentable,
    decompose,
    decompose_generalized,
    decompose_square_power,
    render_part,
)

_EXPORT_MACHINES = FAMILY_NAMES + ("syntax-odd", "syntax-even")

_DECOMPOSERS = {
    "squares4": decompose,
    "square-power": decompose_square_power,
    "generalized": decompose_generalized,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 3."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse override
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _emit(args: argparse.Namespace, record: dict, lines: Iterable[str]) -> None:
    if args.json:
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        for line in lines:
            print(line)


def cmd_verify(args: argparse.Namespace) -> int:
    family, parity, shortest = TARGETS[args.target]
    started = time.perf_counter()
    # the cover's union accepts some of the family's words, so inclusion in
    # it proves the family theorem through a stronger lemma
    runtime = cover_runtime(family)
    machine = runtime.union
    checker = syntax_checker(parity, shortest)
    built = time.perf_counter()
    # inclusion runs on the checked quotient, which accepts the union's words
    proof = runtime.proof_machine
    collapsed = time.perf_counter()
    result = includes(proof, checker)
    finished = time.perf_counter()
    states, edges = machine.num_states, machine.num_transitions()
    record = {
        "kind": "verify",
        "assertion": f"{args.target}: all source lengths >= {shortest} covered",
        "holds": result.holds,
        "members": len(runtime.profiles),
        "family_members": len(family_profiles(family)),
        "cover": [p.label for p in runtime.profiles],
        "states": states,
        "transitions": edges,
        "generated_states": runtime.generated_states,
        "generated_transitions": runtime.generated_transitions,
        "generator_nodes": runtime.generator_nodes,
        "proof_states": proof.num_states,
        "proof_transitions": proof.num_transitions(),
        "checker_states": checker.num_states,
        "explored": result.explored,
        "subset_steps": result.subset_steps,
        "antichain_peak": result.antichain_peak,
        "subset_popcount_mean": round(result.subset_popcount_mean, 2),
        "table_entries": result.table_entries,
        "build_seconds": round(built - started, 3),
        "quotient_seconds": round(collapsed - built, 3),
        "inclusion_seconds": round(finished - collapsed, 3),
        "wall_seconds": round(finished - started, 3),
    }
    lines = [
        f"assertion    {record['assertion']}",
        f"holds        {result.holds}",
        f"members      {record['members']} of {record['family_members']} family members",
        f"cover        {' '.join(record['cover'])}",
        f"states       {states}",
        f"transitions  {edges}",
        f"generated    {runtime.generated_states} states, "
        f"{runtime.generated_transitions} transitions before trim, "
        f"from {runtime.generator_nodes} generator nodes",
        f"proof        {proof.num_states} states, "
        f"{record['proof_transitions']} transitions after quotient",
        f"checker      {record['checker_states']} states",
        f"explored     {result.explored} pairs",
        f"steps        {result.subset_steps} subset steps",
        f"antichain    {result.antichain_peak} subsets peak",
        f"subsets      {record['subset_popcount_mean']} states mean",
        f"tables       {result.table_entries} entries built",
        f"build        {record['build_seconds']}s",
        f"quotient     {record['quotient_seconds']}s",
        f"inclusion    {record['inclusion_seconds']}s",
        f"wall         {record['wall_seconds']}s",
    ]
    if result.counterexample is not None:
        value = unfold(result.counterexample)
        word = render_word(result.counterexample)
        record["counterexample"] = {"value": value, "word": word}
        lines.append(f"counterexample value {value}")
        lines.append(f"counterexample word  {word}")
    _emit(args, record, lines)
    return 0 if result.holds else 1


def _parse_profiles(text: str) -> tuple[list[tuple[int, int]], int | None]:
    """Parse "offset:count,offset:count[,carry=auto|K]" into entries + carry."""
    entries: list[tuple[int, int]] = []
    carry: int | None = None
    for raw in text.split(","):
        token = raw.strip()
        if token.startswith("carry="):
            tail = token.removeprefix("carry=")
            if tail == "auto":
                carry = None
                continue
            try:
                carry = int(tail)
            except ValueError:
                raise ValueError(f"carry must be 'auto' or a number, got {tail!r}")
            if carry < 0:
                raise ValueError("carry cannot be negative")
            continue
        offset, sep, count = token.partition(":")
        if not sep:
            raise ValueError(f"profile entry {token!r} is not offset:count")
        try:
            entry = (int(offset), int(count))
        except ValueError:
            raise ValueError(f"profile entry {token!r} is not offset:count")
        if entry[1] < 0:
            raise ValueError(f"count cannot be negative in {token!r}")
        entries.append(entry)
    total = sum(count for _, count in entries)
    if not total:
        raise ValueError("profile spec lists no summands")
    if total > MAX_SUMMANDS:
        raise ValueError(
            f"profile spec counts {total} summands, more than {MAX_SUMMANDS}"
        )
    # the low chain's carry stays below the summand count, so a machine with
    # a carry at or past it accepts nothing and is never built
    if carry is not None and carry >= total:
        raise ValueError(f"carry {carry} is not below the {total} summands")
    return entries, carry


def cmd_crossvalidate(args: argparse.Namespace) -> int:
    length = args.length
    if not 3 <= length <= 14:
        raise ValueError("length must be between 3 and 14")
    entries, carry = _parse_profiles(args.profiles)
    parity = "odd" if length % 2 else "even"
    for offset, _ in entries:
        if (length - offset) % 2 or length - offset < 2:
            raise ValueError(
                f"offset {offset} at length {length} makes the summand length"
                f" {length - offset}, which is odd or below 2"
            )

    machine_values: set[int] = set()
    machines = 0
    expected: set[int] = set()
    low = 1 << (length - 1)
    bound = 1 << length
    for combo in product(*(range(count + 1) for _, count in entries)):
        total = sum(combo)
        if total == 0:
            continue
        chosen = [
            (offset, used)
            for (offset, _), used in zip(entries, combo)
            if used
        ]
        mask = profile_sum_mask([(length - o, u) for o, u in chosen], bound)
        expected.update(v for v in range(low, bound) if mask >> v & 1)
        summands = tuple(Summand(o, u) for o, u in chosen)
        carries = range(total) if carry is None else [carry]
        for m in carries:
            # a pinned carry is below the whole spec's count, but it can be
            # at or past this subset's, and such a machine accepts nothing
            if m >= total:
                continue
            nfa = fixed_machine(parity, length, summands, m)
            machine_values |= accept_set(nfa, parity, length)
            machines += 1

    difference = machine_values ^ expected
    record = {
        "kind": "crossvalidate",
        "length": length,
        "profiles": args.profiles,
        "machines": machines,
        "machine_values": len(machine_values),
        "oracle_values": len(expected),
        "symmetric_difference": len(difference),
        "holds": not difference,
    }
    lines = [
        f"length                {length}",
        f"profiles              {args.profiles}",
        f"machines              {machines}",
        f"machine values        {len(machine_values)}",
        f"oracle values         {len(expected)}",
        f"symmetric difference  {len(difference)}",
    ]
    if difference:
        sample = sorted(difference)[:10]
        record["difference_sample"] = sample
        lines.append("mismatch sample       " + ", ".join(map(str, sample)))
    _emit(args, record, lines)
    return 0 if not difference else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    result = _DECOMPOSERS[args.mode](args.value)
    rendered = [render_part(value, role) for value, role in result.parts]
    record = {
        "kind": "decompose",
        "mode": args.mode,
        "value": result.target,
        "parts": [
            {"value": value, "role": role, "rendered": text}
            for (value, role), text in zip(result.parts, rendered)
        ],
        "profile": result.profile,
        "states_visited": result.states_visited,
        "frontier_max": result.frontier_max,
    }
    # only a machine-backed result has stages to time and a path search
    record.update({f"{stage}_seconds": round(s, 6) for stage, s in result.stage_seconds.items()})
    if result.path_memo_hits is not None:
        record["path_memo_hits"] = result.path_memo_hits
        record["path_table_builds"] = result.path_table_builds
    lines = [f"{result.target} = " + " + ".join(str(v) for v in result.values())]
    lines.extend(f"  {text}" for text in rendered)
    if result.profile:
        lines.append(f"profile {result.profile}")
    _emit(args, record, lines)
    return 0


def cmd_exceptions(args: argparse.Namespace) -> int:
    if args.bound < 1:
        raise ValueError("bound must be positive")
    finder = (
        exceptions_exact_four_positive
        if args.exact_four_positive
        else exceptions_four_squares
    )
    for value in finder(args.bound):
        record = {
            "kind": "exception",
            "value": value,
            "exact_four_positive": args.exact_four_positive,
        }
        _emit(args, record, [str(value)])
    return 0


def cmd_counts(args: argparse.Namespace) -> int:
    if args.bound < 1:
        raise ValueError("bound must be positive")
    started = time.perf_counter()
    counts = four_squares_counts(args.bound)
    seconds = round(time.perf_counter() - started, 3)
    record = {"kind": "counts", "bound": args.bound, "counts": counts, "seconds": seconds}
    lines = [f"{k} {count}" for k, count in enumerate(counts, start=1)]
    _emit(args, record, lines)
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    pointwise = two_squares_density(args.bound)
    window_min = lower_density_estimate(args.bound)
    seconds = round(time.perf_counter() - started, 3)
    record = {
        "kind": "density",
        "bound": args.bound,
        "pointwise": [pointwise.numerator, pointwise.denominator],
        "pointwise_float": float(pointwise),
        "window_min": [window_min.numerator, window_min.denominator],
        "window_min_float": float(window_min),
        "seconds": seconds,
    }
    lines = [
        f"pointwise   {pointwise} ~ {float(pointwise):.6f}",
        f"window-min  {window_min} ~ {float(window_min):.6f}",
    ]
    _emit(args, record, lines)
    return 0


def cmd_optimality(args: argparse.Namespace) -> int:
    table = optimality_check(args.max_n)
    for n, representations in sorted(table.items()):
        record = {
            "kind": "optimality",
            "n": n,
            "representations": [list(r) for r in representations],
        }
        shown = ", ".join("+".join(map(str, rep)) for rep in representations)
        _emit(args, record, [f"n={n} {shown or 'none'}"])
    return 0


def cmd_uniqueness(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    size = sumset_uniqueness(args.n)
    seconds = round(time.perf_counter() - started, 3)
    expected = 1 << (2 * args.n - 1)
    holds = size == expected
    record = {
        "kind": "uniqueness",
        "n": args.n,
        "size": size,
        "expected": expected,
        "holds": holds,
        "seconds": seconds,
    }
    lines = [f"n={args.n} size={size} expected={expected} holds={holds}"]
    _emit(args, record, lines)
    return 0 if holds else 1


def cmd_export(args: argparse.Namespace) -> int:
    if args.machine.startswith("syntax-"):
        parity = args.machine.removeprefix("syntax-")
        _, _, shortest = TARGETS[f"{parity}-squares"]
        nfa = syntax_checker(parity, shortest)
    else:
        nfa = cover_runtime(args.machine).union
    name = args.machine.replace("-", "_")
    text = to_dot(nfa, name) if args.format == "dot" else to_automata_script(nfa, name)
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 3
    states, edges = nfa.num_states, nfa.num_transitions()
    record = {
        "kind": "export",
        "machine": args.machine,
        "format": args.format,
        "path": args.out,
        "states": states,
        "transitions": edges,
    }
    _emit(args, record, [f"wrote {args.out} ({states} states, {edges} transitions)"])
    return 0


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit line-delimited JSON records instead of text",
    )

    parser = _Parser(
        prog="binsquares",
        description="Verified sums of binary squares.",
    )
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    commands = parser.add_subparsers(
        dest="command", metavar="command", parser_class=_Parser
    )
    commands.required = True

    verify = commands.add_parser(
        "verify", parents=[common], help="run a machine inclusion assertion"
    )
    verify.add_argument("target", choices=sorted(TARGETS))
    verify.set_defaults(func=cmd_verify)

    cross = commands.add_parser(
        "crossvalidate",
        parents=[common],
        help="compare machine accept sets against direct sums at one length",
    )
    cross.add_argument("--length", type=int, required=True, metavar="L")
    cross.add_argument(
        "--profiles",
        required=True,
        metavar="SPEC",
        help="comma list of offset:count, optionally carry=auto or carry=K",
    )
    cross.set_defaults(func=cmd_crossvalidate)

    decomp = commands.add_parser(
        "decompose", parents=[common], help="decompose one integer"
    )
    decomp.add_argument(
        "--mode",
        choices=sorted(_DECOMPOSERS),
        default="squares4",
    )
    decomp.add_argument("value", type=int, metavar="N")
    decomp.set_defaults(func=cmd_decompose)

    exceptions = commands.add_parser(
        "exceptions",
        parents=[common],
        help="list integers with no four-square decomposition",
    )
    exceptions.add_argument("--bound", type=int, required=True, metavar="B")
    exceptions.add_argument("--exact-four-positive", action="store_true")
    exceptions.set_defaults(func=cmd_exceptions)

    counts = commands.add_parser(
        "counts", parents=[common], help="count integers by squares needed"
    )
    counts.add_argument("--bound", type=int, required=True, metavar="B")
    counts.set_defaults(func=cmd_counts)

    density = commands.add_parser(
        "density", parents=[common], help="two-square sum density statistics"
    )
    density.add_argument("--bound", type=int, required=True, metavar="B")
    density.set_defaults(func=cmd_density)

    optimality = commands.add_parser(
        "optimality",
        parents=[common],
        help="short representations of odd powers of two",
    )
    optimality.add_argument("--max-n", type=int, required=True, metavar="K")
    optimality.set_defaults(func=cmd_optimality)

    uniqueness = commands.add_parser(
        "uniqueness",
        parents=[common],
        help="check distinctness of cross-length square sums",
    )
    uniqueness.add_argument("--n", type=int, required=True, metavar="K")
    uniqueness.set_defaults(func=cmd_uniqueness)

    export = commands.add_parser(
        "export", parents=[common], help="write a machine rendering to a file"
    )
    export.add_argument("machine", choices=sorted(_EXPORT_MACHINES))
    export.add_argument("--format", choices=("dot", "ats"), required=True)
    export.add_argument("--out", required=True, metavar="PATH")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotRepresentable as exc:
        print(f"not representable: {exc}", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
