"""The four workloads: their ops and the known answer each op must give.

An op is one call sequence into the public ``ppscontext`` API.  Every
library function is looked up on the package at call time, so the span
wrappers of a traced run see each call.  ``check`` returns ``None`` for
a right answer or a one-line reason for a wrong one.

``KNOWN_DEFECTS`` lists the ops that fail today in one exact, documented
way.  They still count as failed ops; a run stays ``correct`` only while
every failure is one of these.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import ppscontext as pc
from ppscontext import cli, contextuality, generate

import inputs

#: Planted paradoxes in the corpus workload (d = 3..5).
CORPUS_SIZE = 60
PIGEONHOLE_QUBITS = (3, 4, 5)
#: (dimension, closure depth); d = 12 at depth 3 takes minutes per op.
CLOSURE_SIZES = ((6, 3), (8, 2), (10, 1))
CLOSURE_SEEDS_PER_SIZE = 3
#: Corpus scenarios written to JSON for the cli workload.
CLI_FILES = 6
SIMULATE_SAMPLES = 1_000_000
GOLDEN_DOT = Path("tests") / "golden" / "three_box.dot"

#: Documented exit codes of the CLI.
EXIT_OK, EXIT_ERROR, EXIT_NEGATIVE = 0, 1, 2

SAT_NOT_UNSAT = "SAT where UNSAT is known"

#: Ops that fail today, with the exact failure they give.  The pigeonhole
#: paradox is detected, but the constraint system drops the commuting-
#: algebra relation it rests on, so the search finds a colouring.
KNOWN_DEFECTS = {f"corpus/pigeonhole-{n}": SAT_NOT_UNSAT for n in PIGEONHOLE_QUBITS}


@dataclass(frozen=True, eq=False)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]

    @property
    def known_defect(self) -> str | None:
        return KNOWN_DEFECTS.get(self.name)


# --- corpus ------------------------------------------------------------------


def prove_scenario(scenario):
    verdict = pc.detect_paradox(scenario)
    system = pc.build_constraint_system(scenario, verdict)
    return verdict, system, pc.solve(system)


def check_proof(result) -> str | None:
    """A detected paradox whose violations recheck and whose system is UNSAT."""
    verdict, system, cert = result
    if not verdict.is_paradox:
        return "no paradox detected"
    if not all(pc.recheck_violation(v) for v in verdict.violations):
        return "violation fails recheck_violation"
    if cert.status == "SAT":
        if not pc.check_assignment(system, cert.witness):
            return "SAT witness fails check_assignment"
        return SAT_NOT_UNSAT
    return None if cert.status == "UNSAT" else f"unknown status {cert.status!r}"


def corpus(seed: int, workdir: Path, root: Path) -> tuple[Op, ...]:
    named = [
        (f"planted-{i:02d}", s)
        for i, s in enumerate(generate.paradox_corpus(seed, CORPUS_SIZE))
    ]
    named.append(("three-box", pc.three_box()))
    named.extend((f"pigeonhole-{n}", inputs.pigeonhole(n)) for n in PIGEONHOLE_QUBITS)
    return tuple(
        Op(f"corpus/{name}", partial(prove_scenario, scenario), check_proof)
        for name, scenario in named
    )


# --- closure -----------------------------------------------------------------


def detect(scenario, depth: int):
    return pc.detect_paradox(scenario, depth)


def check_no_paradox(verdict) -> str | None:
    """Logical and not a paradox, by construction of the closure family."""
    if not verdict.is_logical:
        return "not logical"
    return "paradox detected" if verdict.is_paradox else None


def closure(seed: int, workdir: Path, root: Path) -> tuple[Op, ...]:
    rng = generate.rng_for(seed)
    ops = []
    for dim, depth in CLOSURE_SIZES:
        for k in range(CLOSURE_SEEDS_PER_SIZE):
            scenario = inputs.closure_scenario(dim, rng)
            ops.append(
                Op(f"closure/d{dim}-depth{depth}-{k}", partial(detect, scenario, depth),
                   check_no_paradox)
            )
    return tuple(ops)


# --- ks ----------------------------------------------------------------------


def pinned(system, node: int):
    """The system with ``node`` additionally fixed to 1."""
    return dataclasses.replace(system, fixed=system.fixed + ((node, 1),))


def solve_ray_set(rays: inputs.RaySet, pin_order: tuple[int, ...]):
    system = contextuality.assemble_system(rays.nodes, rays.fixed, rays.bases, ())
    cert = pc.solve(system)
    return system, cert, [pc.solve(pinned(system, i)) for i in pin_order]


def _status_error(system, cert, expected: str) -> str | None:
    if cert.status != expected:
        return f"{cert.status} where {expected} is known"
    if cert.status == "SAT" and not pc.check_assignment(system, cert.witness):
        return "SAT witness fails check_assignment"
    return None


def check_ray_set(rays: inputs.RaySet, pin_order: tuple[int, ...], result) -> str | None:
    """Literature status for the set, enumerated status for each pin."""
    system, cert, pinned_certs = result
    if set(system.exclusions) != rays.exclusions:
        return "exclusions differ from exact orthogonality"
    error = _status_error(system, cert, rays.expected)
    if error:
        return error
    for node, pinned_cert in zip(pin_order, pinned_certs):
        expected = "SAT" if rays.pinned_sat[node] else "UNSAT"
        error = _status_error(pinned(system, node), pinned_cert, expected)
        if error:
            return f"pin {node}: {error}"
    return None


def ks(seed: int, workdir: Path, root: Path) -> tuple[Op, ...]:
    rng = generate.rng_for(seed)
    names = list(inputs.KS_SETS)
    ops = []
    for k in rng.permutation(len(names)):
        rays = inputs.build_ray_set(names[k])
        pin_order = tuple(int(i) for i in rng.permutation(len(rays.nodes)))
        ops.append(
            Op(f"ks/{rays.name}", partial(solve_ray_set, rays, pin_order),
               partial(check_ray_set, rays, pin_order))
        )
    return tuple(ops)


# --- cli ---------------------------------------------------------------------


def run_cli(argv: tuple[str, ...]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class CliChecker:
    """Exit code as documented, and byte-identical output on every repeat.

    ``out`` names a file the command writes; its bytes are part of the
    output, and must equal ``golden`` when one is given.
    """

    def __init__(self) -> None:
        self.first: dict[tuple[str, ...], tuple] = {}

    def check(self, argv, expected: int, out: Path | None, golden: bytes | None,
              result) -> str | None:
        code, stdout, stderr = result
        if code != expected:
            return f"exit {code}, expected {expected}: {stderr.strip()[:120]}"
        written = out.read_bytes() if out is not None else None
        if golden is not None and written != golden:
            return "graph output differs from the golden file"
        seen = self.first.setdefault(tuple(argv), (stdout, written))
        return None if seen == (stdout, written) else "output differs from first run"


def cli_ops(seed: int, workdir: Path, golden: bytes) -> list[tuple]:
    """(argv, expected exit code, written file, golden bytes) per op."""
    three_box_dot = workdir / "three_box.dot"
    simulate = ("--pvm", "E1", "--samples", str(SIMULATE_SAMPLES), "--seed", str(seed))
    specs = [
        (("abl", "--builtin", "three-box"), EXIT_OK, None, None),
        (("detect", "--builtin", "three-box"), EXIT_OK, None, None),
        (("prove", "--builtin", "three-box"), EXIT_OK, None, None),
        (("prove", "--builtin", "clifton-rays"), EXIT_OK, None, None),
        (("graph", "--builtin", "three-box", "--out", str(three_box_dot)),
         EXIT_OK, three_box_dot, golden),
        (("simulate", "--builtin", "three-box", *simulate), EXIT_OK, None, None),
        # clifton-rays is a bare constraint system, not a scenario.
        (("detect", "--builtin", "clifton-rays"), EXIT_ERROR, None, None),
    ]
    for i in range(CLI_FILES):
        path = str(workdir / f"corpus-{i}.json")
        dot = workdir / f"corpus-{i}.dot"
        specs += [
            (("abl", "--file", path), EXIT_OK, None, None),
            (("detect", "--file", path), EXIT_OK, None, None),
            (("prove", "--file", path), EXIT_OK, None, None),
            (("graph", "--file", path, "--out", str(dot)), EXIT_OK, dot, None),
        ]
    specs.append((("simulate", "--file", str(workdir / "corpus-0.json"), *simulate),
                  EXIT_OK, None, None))
    plain = str(workdir / "plain.json")
    specs += [
        (("detect", "--file", plain), EXIT_NEGATIVE, None, None),
        (("prove", "--file", plain), EXIT_ERROR, None, None),
    ]
    return specs


def write_cli_files(seed: int, workdir: Path) -> None:
    for i, scenario in enumerate(generate.paradox_corpus(seed, CLI_FILES)):
        pc.save_scenario(scenario, workdir / f"corpus-{i}.json")
    # Generic random selections: not logical, so no paradox.
    plain = generate.random_scenario(3, generate.rng_for(seed), n_pvms=2)
    pc.save_scenario(plain, workdir / "plain.json")


def cli_workload(seed: int, workdir: Path, root: Path) -> tuple[Op, ...]:
    golden_path = root / GOLDEN_DOT
    if not golden_path.is_file():
        raise inputs.SetupError(f"missing golden file {GOLDEN_DOT}")
    golden = golden_path.read_bytes()
    write_cli_files(seed, workdir)
    checker = CliChecker()
    return tuple(
        Op("cli/" + " ".join(Path(a).name for a in argv[:3]), partial(run_cli, argv),
           partial(checker.check, argv, expected, out, gold))
        for argv, expected, out, gold in cli_ops(seed, workdir, golden)
    )


BY_NAME = {"corpus": corpus, "closure": closure, "ks": ks, "cli": cli_workload}
