"""Command-line interface.

    ppscontext {abl|detect|prove|simulate|graph}
               (--builtin NAME | --file PATH)
               [--pvm NAME] [--samples N] [--seed S] [--depth D] [--out PATH]

Exit codes: ``prove`` returns 0 when the search is UNSAT (noncontextual
assignment impossible), 2 when it is SAT, 1 on error; ``detect`` returns
0 for a paradox, 2 for no paradox, 1 on error; the remaining commands
return 0 on success and 1 on error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .contextuality import (
    Certificate,
    ConstraintSystem,
    build_constraint_system,
    export_orthogonality_graph,
    solve,
)
from .errors import ToolError
from .measurement import AblTable, Scenario, abl_table, simulate_frequencies
from .paradox import ParadoxVerdict, detect_paradox
from .scenarios import load_builtin, load_scenario_file, require_scenario


def _fmt(p: float) -> str:
    return f"{p:.12f}"


@dataclass(frozen=True)
class Report:
    """Human-readable sections plus a machine block mirroring every number."""

    sections: tuple[tuple[str, str], ...]
    machine: tuple[tuple[str, str], ...]

    def render(self) -> str:
        chunks = []
        for title, body in self.sections:
            chunks.append(f"= {title} =\n{body}")
        machine_lines = "\n".join(f"{k}={v}" for k, v in self.machine)
        chunks.append(f"= machine =\n{machine_lines}")
        return "\n\n".join(chunks) + "\n"


def _scenario_section(scenario: Scenario) -> tuple[str, str]:
    pvms = " ".join(f"{m.name}[{len(m)}]" for m in scenario.measurements)
    body = "\n".join(
        [
            f"dimension: {scenario.dim}",
            f"pre: rank {scenario.pre.rank}",
            f"post: rank {scenario.post.rank}",
            f"pre/post overlap: {_fmt(scenario.pre_post_overlap())}",
            f"measurements: {pvms}",
        ]
    )
    return ("scenario", body)


def _scenario_machine(scenario: Scenario) -> list[tuple[str, str]]:
    return [
        ("dimension", str(scenario.dim)),
        ("overlap", _fmt(scenario.pre_post_overlap())),
    ]


def _abl_section(scenario: Scenario, table: AblTable) -> tuple[str, str]:
    lines = []
    for pvm in scenario.measurements:
        weight = table.postselection_weights[pvm.name]
        lines.append(f"{pvm.name}: weight {_fmt(weight)}")
        for k in range(len(pvm.elements)):
            value = table.entries.get((pvm.name, k))
            if value is not None:
                lines.append(f"  p({pvm.name}[{k}]) = {_fmt(value)}")
        if weight == 0.0:
            lines.append("  post-selection impossible; no entries")
    return ("abl", "\n".join(lines))


def _abl_machine(scenario: Scenario, table: AblTable) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for pvm in scenario.measurements:
        pairs.append((f"weight.{pvm.name}", _fmt(table.postselection_weights[pvm.name])))
        for k in range(len(pvm.elements)):
            value = table.entries.get((pvm.name, k))
            if value is not None:
                pairs.append((f"abl.{pvm.name}.{k}", _fmt(value)))
    return pairs


def _verdict_section(verdict: ParadoxVerdict) -> tuple[str, str]:
    lines = [
        f"logical: {str(verdict.is_logical).lower()}",
        f"paradox: {str(verdict.is_paradox).lower()}",
    ]
    for name, k, value in verdict.non_extremal:
        lines.append(f"  non-extremal: p({name}[{k}]) = {_fmt(value)}")
    for v in verdict.violations:
        lines.append(f"violation [{'+'.join(v.conditions)}]: {v.description}")
    return ("verdict", "\n".join(lines))


def _verdict_machine(verdict: ParadoxVerdict) -> list[tuple[str, str]]:
    pairs = [
        ("logical", str(verdict.is_logical).lower()),
        ("paradox", str(verdict.is_paradox).lower()),
    ]
    for i, v in enumerate(verdict.violations):
        pairs.append((f"violation.{i}.conditions", "+".join(v.conditions)))
        pairs.append((f"violation.{i}.derived", _fmt(v.derived)))
    return pairs


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
    if kind == "decision":
        return f'decision on "{system.labels[reason[1]]}"'
    return str(reason)


def _certificate_section(
    system: ConstraintSystem, cert: Certificate
) -> tuple[str, str]:
    lines = [
        f"status: {cert.status}",
        f"nodes: {len(system.nodes)}",
        f"search branches: {cert.search_nodes}",
    ]
    if cert.status == "SAT":
        assigned = " ".join(
            f'"{system.labels[i]}"={v}' for i, v in enumerate(cert.witness)
        )
        lines.append(f"witness: {assigned}")
    else:
        lines.append("trace:")
        for step in cert.trace:
            lines.append(
                f'  "{system.labels[step.node]}" := {step.value}'
                f"   [{_reason_text(system, step.reason)}]"
            )
        lines.append(f"  contradiction: {_reason_text(system, cert.conflict)}")
    return ("certificate", "\n".join(lines))


def _certificate_machine(
    system: ConstraintSystem, cert: Certificate
) -> list[tuple[str, str]]:
    pairs = [
        ("status", cert.status),
        ("nodes", str(len(system.nodes))),
        ("search_nodes", str(cert.search_nodes)),
    ]
    if cert.status == "SAT":
        for i, v in enumerate(cert.witness):
            pairs.append((f"witness.{i}", str(v)))
    else:
        pairs.append(("conflict", _reason_text(system, cert.conflict)))
    return pairs


def cmd_abl(args) -> int:
    scenario = require_scenario(_load(args))
    table = abl_table(scenario)
    report = Report(
        sections=(_scenario_section(scenario), _abl_section(scenario, table)),
        machine=tuple(_scenario_machine(scenario) + _abl_machine(scenario, table)),
    )
    print(report.render(), end="")
    return 0


def cmd_detect(args) -> int:
    scenario = require_scenario(_load(args))
    table = abl_table(scenario)
    verdict = detect_paradox(scenario, depth=args.depth)
    report = Report(
        sections=(
            _scenario_section(scenario),
            _abl_section(scenario, table),
            _verdict_section(verdict),
        ),
        machine=tuple(
            _scenario_machine(scenario)
            + _abl_machine(scenario, table)
            + _verdict_machine(verdict)
        ),
    )
    print(report.render(), end="")
    return 0 if verdict.is_paradox else 2


def _system_for(args) -> tuple[ConstraintSystem, tuple, tuple]:
    """Constraint system plus report sections/machine pairs for its origin."""
    obj = _load(args)
    if isinstance(obj, ConstraintSystem):
        return obj, (), ()
    scenario = require_scenario(obj)
    verdict = detect_paradox(scenario, depth=args.depth)
    system = build_constraint_system(scenario, verdict)
    sections = (_scenario_section(scenario), _verdict_section(verdict))
    machine = tuple(_scenario_machine(scenario) + _verdict_machine(verdict))
    return system, sections, machine


def cmd_prove(args) -> int:
    system, sections, machine = _system_for(args)
    cert = solve(system)
    report = Report(
        sections=sections + (_certificate_section(system, cert),),
        machine=machine + tuple(_certificate_machine(system, cert)),
    )
    print(report.render(), end="")
    return 0 if cert.status == "UNSAT" else 2


def cmd_simulate(args) -> int:
    scenario = require_scenario(_load(args))
    if not args.pvm:
        raise ToolError("simulate requires --pvm NAME")
    try:
        pvm = scenario.pvm(args.pvm)
    except KeyError as exc:
        raise ToolError(str(exc)) from exc
    result = simulate_frequencies(scenario, pvm, args.samples, args.seed)
    accepted = sum(count for _, count in result.values())
    lines = [f"samples: {args.samples}", f"seed: {args.seed}", f"accepted: {accepted}"]
    machine: list[tuple[str, str]] = [
        ("samples", str(args.samples)),
        ("seed", str(args.seed)),
        ("accepted", str(accepted)),
    ]
    for k in sorted(result):
        freq, count = result[k]
        lines.append(f"freq({pvm.name}[{k}]) = {_fmt(freq)}   ({count} runs)")
        machine.append((f"freq.{pvm.name}.{k}", _fmt(freq)))
        machine.append((f"count.{pvm.name}.{k}", str(count)))
    report = Report(
        sections=(
            _scenario_section(scenario),
            ("frequencies", "\n".join(lines)),
        ),
        machine=tuple(_scenario_machine(scenario) + machine),
    )
    print(report.render(), end="")
    return 0


def cmd_graph(args) -> int:
    system, _, _ = _system_for(args)
    text = export_orthogonality_graph(system)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(system.nodes)} nodes to {args.out}")
    else:
        print(text, end="")
    return 0


COMMANDS = {
    "abl": cmd_abl,
    "detect": cmd_detect,
    "prove": cmd_prove,
    "simulate": cmd_simulate,
    "graph": cmd_graph,
}


def _load(args):
    if args.builtin:
        return load_builtin(args.builtin)
    return load_scenario_file(args.file)


class _Parser(argparse.ArgumentParser):
    # Exit code 1 for usage errors too; 2 is reserved for negative results.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error UsageError: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ppscontext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("abl", "conditional probabilities of every outcome"),
        ("detect", "decide whether the scenario is a logical paradox"),
        ("prove", "derive and solve the noncontextuality constraint system"),
        ("simulate", "Monte-Carlo frequencies for one measurement"),
        ("graph", "export the orthogonality graph as DOT text"),
    ):
        p = sub.add_parser(name, help=help_text)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", help="builtin input name")
        group.add_argument("--file", help="scenario document path")
        p.add_argument("--pvm", help="measurement name (simulate)")
        p.add_argument("--samples", type=int, default=100000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--depth", type=int, default=3, help="closure rounds")
        p.add_argument("--out", help="output path (graph)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return COMMANDS[args.command](args)
    except ToolError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
