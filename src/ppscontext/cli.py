"""Command-line interface.

    ppscontext abl      (--builtin NAME | --file PATH)
    ppscontext detect   (--builtin NAME | --file PATH) [--depth D]
    ppscontext prove    (--builtin NAME | --file PATH) [--depth D]
    ppscontext simulate (--builtin NAME | --file PATH) --pvm NAME
                        [--samples N] [--seed S]
    ppscontext graph    (--builtin NAME | --file PATH) [--depth D] [--out PATH]

``--depth`` (default 3) bounds the closure rounds, so "no paradox" holds
only up to that depth.  ``simulate`` draws the count of runs passing each
stage, not each run, so its cost does not depend on ``--samples`` (1 to
MAX_SAMPLES = 2**63 - 1).  A subcommand rejects every option it does not
read, and out-of-range counts, as usage errors.

Exit codes: ``prove`` returns 0 when the search is UNSAT (noncontextual
assignment impossible), 2 when it is SAT, 1 on error; ``detect`` returns
0 for a paradox, 2 for no paradox, 1 on error; the remaining commands
return 0 on success and 1 on error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .contextuality import (
    Certificate,
    ConstraintSystem,
    build_constraint_system,
    export_orthogonality_graph,
    solve,
)
from .errors import ToolError
from .measurement import (
    MAX_SAMPLES,
    AblTable,
    Pvm,
    Scenario,
    abl_table,
    simulate_frequencies,
)
from .paradox import ParadoxVerdict, detect_paradox
from .scenarios import load_builtin, load_scenario_file, require_scenario

# A report part is (title, human-readable lines, machine key/value pairs);
# the machine block mirrors every number of the sections.
Part = tuple[str, list[str], list[tuple[str, str]]]


def _fmt(p: float) -> str:
    return f"{p:.12f}"


def _scenario_part(scenario: Scenario) -> Part:
    overlap = _fmt(scenario.pre_post_overlap())
    pvms = " ".join(f"{m.name}[{len(m)}]" for m in scenario.measurements)
    lines = [
        f"dimension: {scenario.dim}",
        f"pre: rank {scenario.pre.rank}",
        f"post: rank {scenario.post.rank}",
        f"pre/post overlap: {overlap}",
        f"measurements: {pvms}",
    ]
    return "scenario", lines, [("dimension", str(scenario.dim)), ("overlap", overlap)]


def _abl_part(scenario: Scenario, table: AblTable) -> Part:
    lines, pairs = [], []
    for pvm in scenario.measurements:
        weight = table.postselection_weights[pvm.name]
        lines.append(f"{pvm.name}: weight {_fmt(weight)}")
        pairs.append((f"weight.{pvm.name}", _fmt(weight)))
        for k in range(len(pvm.elements)):
            value = table.entries.get((pvm.name, k))
            if value is not None:
                lines.append(f"  p({pvm.name}[{k}]) = {_fmt(value)}")
                pairs.append((f"abl.{pvm.name}.{k}", _fmt(value)))
        if weight == 0.0:
            lines.append("  post-selection impossible; no entries")
    return "abl", lines, pairs


def _verdict_part(verdict: ParadoxVerdict) -> Part:
    logical = str(verdict.is_logical).lower()
    paradox = str(verdict.is_paradox).lower()
    lines = [f"logical: {logical}", f"paradox: {paradox}"]
    pairs = [("logical", logical), ("paradox", paradox)]
    for name, k, value in verdict.non_extremal:
        lines.append(f"  non-extremal: p({name}[{k}]) = {_fmt(value)}")
    for i, v in enumerate(verdict.violations):
        conditions = "+".join(v.conditions)
        lines.append(f"violation [{conditions}]: {v.description}")
        pairs.append((f"violation.{i}.conditions", conditions))
        pairs.append((f"violation.{i}.derived", _fmt(v.derived)))
    return "verdict", lines, pairs


def _reason_text(system: ConstraintSystem, reason: tuple) -> str:
    kind = reason[0]
    if kind == "exclusion":
        _, a, b = reason
        return f'exclusion "{system.labels[a]}" -- "{system.labels[b]}"'
    if kind == "resolution":
        members = system.resolutions[reason[1]]
        return "resolution " + " ".join(f'"{system.labels[m]}"' for m in members)
    if kind == "fixed":
        return f'fixed "{system.labels[reason[1]]}"'
    return f'decision on "{system.labels[reason[1]]}"'  # solve's fourth and last kind


def _certificate_part(system: ConstraintSystem, cert: Certificate) -> Part:
    lines = [
        f"status: {cert.status}",
        f"nodes: {len(system.nodes)}",
        f"search branches: {cert.search_nodes}",
    ]
    pairs = [
        ("status", cert.status),
        ("nodes", str(len(system.nodes))),
        ("search_nodes", str(cert.search_nodes)),
    ]
    if cert.status == "SAT":
        assigned = []
        for i, v in enumerate(cert.witness):
            assigned.append(f'"{system.labels[i]}"={v}')
            pairs.append((f"witness.{i}", str(v)))
        lines.append(f"witness: {' '.join(assigned)}")
    else:
        lines.append("trace:")
        for node, value, reason in cert.trace:
            lines.append(
                f'  "{system.labels[node]}" := {value}   [{_reason_text(system, reason)}]'
            )
        conflict = _reason_text(system, cert.conflict)
        lines.append(f"  contradiction: {conflict}")
        pairs.append(("conflict", conflict))
    return "certificate", lines, pairs


def _frequencies_part(pvm: Pvm, samples: int, seed: int, result: dict) -> Part:
    accepted = sum(count for _, count in result.values())
    lines = [f"samples: {samples}", f"seed: {seed}", f"accepted: {accepted}"]
    pairs = [("samples", str(samples)), ("seed", str(seed)), ("accepted", str(accepted))]
    for k in sorted(result):
        freq, count = result[k]
        lines.append(f"freq({pvm.name}[{k}]) = {_fmt(freq)}   ({count} runs)")
        pairs.append((f"freq.{pvm.name}.{k}", _fmt(freq)))
        pairs.append((f"count.{pvm.name}.{k}", str(count)))
    return "frequencies", lines, pairs


def _print_report(*parts: Part) -> None:
    """Each part's section, then one machine block of all pairs in part order."""
    chunks = [f"= {title} =\n" + "\n".join(lines) for title, lines, _ in parts]
    machine = [f"{k}={v}" for _, _, pairs in parts for k, v in pairs]
    chunks.append("= machine =\n" + "\n".join(machine))
    print("\n\n".join(chunks))


def _load(args):
    if args.builtin:
        return load_builtin(args.builtin)
    return load_scenario_file(args.file)


def _system_for(args) -> tuple[ConstraintSystem, tuple[Part, ...]]:
    """Constraint system plus the report parts describing its origin."""
    obj = _load(args)
    if isinstance(obj, ConstraintSystem):
        return obj, ()
    scenario = require_scenario(obj)
    verdict = detect_paradox(scenario, depth=args.depth)
    system = build_constraint_system(scenario, verdict)
    return system, (_scenario_part(scenario), _verdict_part(verdict))


def cmd_abl(args) -> int:
    scenario = require_scenario(_load(args))
    _print_report(_scenario_part(scenario), _abl_part(scenario, abl_table(scenario)))
    return 0


def cmd_detect(args) -> int:
    scenario = require_scenario(_load(args))
    verdict = detect_paradox(scenario, depth=args.depth)
    abl = _abl_part(scenario, verdict.table)
    _print_report(_scenario_part(scenario), abl, _verdict_part(verdict))
    return 0 if verdict.is_paradox else 2


def cmd_prove(args) -> int:
    system, parts = _system_for(args)
    cert = solve(system)
    _print_report(*parts, _certificate_part(system, cert))
    return 0 if cert.status == "UNSAT" else 2


def cmd_simulate(args) -> int:
    scenario = require_scenario(_load(args))
    if not args.pvm:
        raise ToolError("simulate requires --pvm NAME")
    try:
        pvm = scenario.pvm(args.pvm)
    except KeyError as exc:
        raise ToolError(exc.args[0]) from exc
    result = simulate_frequencies(scenario, pvm, args.samples, args.seed)
    frequencies = _frequencies_part(pvm, args.samples, args.seed, result)
    _print_report(_scenario_part(scenario), frequencies)
    return 0


def cmd_graph(args) -> int:
    system, _ = _system_for(args)
    text = export_orthogonality_graph(system)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ToolError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {len(system.nodes)} nodes to {args.out}")
    else:
        print(text, end="")
    return 0


def _count(minimum: int, maximum: int | None = None):
    """argparse type: an integer no smaller than ``minimum`` and, when
    given, no larger than ``maximum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return count


OPTIONS = {
    "--pvm": dict(help="measurement name"),
    "--samples": dict(type=_count(1, MAX_SAMPLES), default=100000),
    "--seed": dict(type=_count(0), default=0),
    "--depth": dict(type=_count(0), default=3, help="closure rounds"),
    "--out": dict(help="output path"),
}

# name: (handler, help, the options it reads)
COMMANDS = {
    "abl": (cmd_abl, "conditional probabilities of every outcome", ()),
    "detect": (cmd_detect, "decide whether the scenario is a logical paradox",
               ("--depth",)),
    "prove": (cmd_prove, "derive and solve the noncontextuality constraint system",
              ("--depth",)),
    "simulate": (cmd_simulate, "Monte-Carlo frequencies for one measurement",
                 ("--pvm", "--samples", "--seed")),
    "graph": (cmd_graph, "export the orthogonality graph as DOT text",
              ("--depth", "--out")),
}


class _Parser(argparse.ArgumentParser):
    # Exit code 1 for usage errors too; 2 is reserved for negative results.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error UsageError: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ppscontext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", help="builtin input name")
        group.add_argument("--file", help="scenario document path")
        for option in options:
            p.add_argument(option, **OPTIONS[option])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return COMMANDS[args.command][0](args)
    except ToolError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
