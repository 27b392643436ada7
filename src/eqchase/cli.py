"""Command line front end.

Subcommands: validate, chase, query, axiomatise, check, bench.  Exit
codes: 0 success, 1 bad input (a usage, parse or validation error),
2 resource limit exceeded, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from .acyclicity import CheckReport, check_pipeline, is_emfa, is_mfa
from .axiomatisation import (
    canonical_query_singularisation,
    canonical_singularisation,
    singularisations,
    standard_axiomatisation,
)
from .chase import (
    ChaseLimits,
    InvalidInputError,
    LimitExceeded,
    Terminated,
    chase,
    homomorphism,
)
from .model import Ontology, validate, validate_query
from .parser import ParseError, Program, parse, serialize, serialize_query, serialize_rule

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_LIMIT = 2
EXIT_INTERNAL = 3


def _add_common(p: argparse.ArgumentParser, formats=("text", "json"), *,
                limits: bool = False, runs_chase: bool = False, timing: bool = False) -> None:
    """The flags a subcommand reads: `--format` over `formats`, if any;
    the depth, atom and time limits; `--max-steps` and `--seed` for a
    chase; and `--no-timing` when its output holds timings."""
    if formats:
        p.add_argument("--format", choices=formats, default="text")
    if limits:
        p.add_argument("--max-depth", type=_count, default=10, metavar="N")
        p.add_argument("--max-atoms", type=_count, default=1_000_000, metavar="N")
        p.add_argument("--timeout-ms", type=_count, default=60_000, metavar="N")
    if runs_chase:
        p.add_argument("--max-steps", type=_count, default=1_000_000, metavar="N")
        p.add_argument("--seed", type=int, default=0, metavar="N")
    if timing:
        p.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock timings from the output (for golden tests)")


def _count(text: str) -> int:
    """The argparse type of a count: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _limits(args: argparse.Namespace) -> ChaseLimits:
    return ChaseLimits(
        max_steps=getattr(args, "max_steps", None),
        max_atoms=args.max_atoms,
        max_term_depth=args.max_depth,
        wall_clock_ms=args.timeout_ms,
    )


def _parse_file(path: str) -> Program:
    try:
        # The whole file is decoded before a byte-order mark is dropped,
        # so an error's byte stays an offset in the file.
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise _CliFailure(
            EXIT_INVALID, f"{path}: not valid UTF-8 (byte {exc.start}: {exc.reason})"
        ) from exc
    except OSError as exc:
        raise _CliFailure(EXIT_INVALID, f"{path}: cannot read ({exc.strerror or exc})") from exc
    try:
        return parse(text)
    except ParseError as exc:
        raise _CliFailure(
            EXIT_INVALID,
            "\n".join(f"{path}:{d}" for d in exc.diagnostics),
        ) from exc


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _only(extra: Program, kind: str, flag: str, source: str) -> Program:
    """The program read from `source` for `flag`, which may hold `kind`
    ("facts" or "queries") alone."""
    for other in ("rules", "facts", "queries"):
        if other != kind and len(getattr(extra, other)):
            raise _CliFailure(EXIT_INVALID, f"{flag} {source}: holds {other}; {flag} takes {kind} only")
    return extra


def _load_program(args: argparse.Namespace) -> Program:
    program = _parse_file(args.file)
    for kind in ("facts", "queries"):
        for path in getattr(args, kind, None) or []:
            program = program.merge(_only(_parse_file(path), kind, f"--{kind}", path))
    for text in getattr(args, "query", None) or []:
        try:
            inline = parse(text)
        except ParseError as exc:
            raise _CliFailure(
                EXIT_INVALID, "\n".join(f"--query: {d}" for d in exc.diagnostics)
            ) from exc
        program = program.merge(_only(inline, "queries", "--query", repr(text)))
    return program


def _violations(program: Program) -> tuple[Ontology, list]:
    """The program's ontology and the violations of it and its queries."""
    ontology = Ontology(program.rules, program.facts)
    violations = validate(ontology)
    for q in program.queries:
        violations.extend(validate_query(q, program.rules))
    return ontology, violations


def _require_valid(program: Program) -> Ontology:
    ontology, violations = _violations(program)
    if violations:
        raise _CliFailure(EXIT_INVALID, "\n".join(str(v) for v in violations))
    return ontology


def _chase_valid(program: Program, args: argparse.Namespace):
    """The chase of a valid program's ontology, which the engine validates;
    here it is validated only to list its violations before a query's."""
    ontology = Ontology(program.rules, program.facts)
    violations = [v for q in program.queries for v in validate_query(q, program.rules)]
    if not violations:
        try:
            return chase(ontology, _limits(args), seed=args.seed)
        except InvalidInputError as exc:
            violations = exc.violations
    else:
        violations[:0] = validate(ontology)
    raise _CliFailure(EXIT_INVALID, "\n".join(str(v) for v in violations))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    _, violations = _violations(_load_program(args))
    if args.format == "json":
        print(json.dumps({"ok": not violations, "violations": [str(v) for v in violations]}))
    else:
        for v in violations:
            print(str(v))
        if not violations:
            print("ok")
    return EXIT_INVALID if violations else EXIT_OK


def _cmd_chase(args: argparse.Namespace) -> int:
    program = _load_program(args)
    t0 = time.perf_counter()
    outcome = _chase_valid(program, args)
    elapsed = (time.perf_counter() - t0) * 1000.0
    state = outcome.result if isinstance(outcome, Terminated) else outcome.partial
    atoms = [str(a) for a in state.sorted_atoms()]
    if args.format == "json":
        doc = {
            "outcome": "terminated" if isinstance(outcome, Terminated) else "limit-exceeded",
            "steps": outcome.steps,
            "atom_count": len(atoms),
            "max_term_depth": state.max_term_depth(),
            "seed": args.seed,
            "atoms": atoms,
        }
        if isinstance(outcome, LimitExceeded):
            doc["limit"] = outcome.limit
        if not args.no_timing:
            doc["elapsed_ms"] = round(elapsed, 3)
        print(json.dumps(doc))
    else:
        for a in atoms:
            print(a)
        print(_status(outcome))
    return EXIT_OK if isinstance(outcome, Terminated) else EXIT_LIMIT


def _status(outcome) -> str:
    """The last line of a chase's text output, and of a stopped query's."""
    if isinstance(outcome, Terminated):
        return f"% terminated after {outcome.steps} steps"
    return f"% stopped after {outcome.steps} steps: {outcome.limit} exceeded"


def _cmd_query(args: argparse.Namespace) -> int:
    program = _load_program(args)
    if not program.queries:
        _require_valid(program)
        raise _CliFailure(EXIT_INVALID, "no queries given (add '? ...' statements or --query)")
    outcome = _chase_valid(program, args)
    finished = isinstance(outcome, Terminated)
    state = outcome.result if finished else outcome.partial
    results = []
    for q in program.queries:
        witness = homomorphism(q.body, state)
        if witness is not None:
            status = "entailed"
            witness = sorted((v.name, str(t)) for v, t in witness.items())
        elif finished:
            status = "not-entailed"
        else:
            status = "unknown"
        results.append((q, status, witness))
    if args.format == "json":
        doc = []
        for q, status, witness in results:
            entry = {"query": serialize_query(q), "status": status}
            if witness is not None:
                entry["witness"] = dict(witness)
            if not finished:
                entry["limit"] = outcome.limit
                entry["steps"] = outcome.steps
            doc.append(entry)
        print(json.dumps(doc))
    else:
        for q, status, witness in results:
            extra = ""
            if witness is not None:
                extra = "  [" + ", ".join(f"{v}={t}" for v, t in witness) + "]"
            print(f"{status}: {serialize_query(q)}{extra}")
        if not finished:
            print(_status(outcome))
    return EXIT_OK if finished else EXIT_LIMIT


def _cmd_axiomatise(args: argparse.Namespace) -> int:
    if args.sing_cap is not None and args.kind != "sing-all":
        raise _CliFailure(EXIT_INVALID, "error: --sing-cap needs --kind sing-all")
    program = _load_program(args)
    _require_valid(program)
    rules = program.rules
    if args.kind == "st":
        outputs = [(standard_axiomatisation(rules), program.queries)]
    else:
        cap = 1 if args.kind == "sing" else 8 if args.sing_cap is None else args.sing_cap
        outputs = [
            (axr, [canonical_query_singularisation(q) for q in program.queries])
            for axr in itertools.islice(singularisations(rules), cap)
        ]
    chunks = []
    for i, (axr, queries) in enumerate(outputs):
        choices = [dict(c) for c in axr.choices] if axr.choices else None
        if args.format == "json":
            chunks.append({
                "kind": axr.kind,
                "choices": choices,
                "rules": [serialize_rule(r) for r in axr.rules],
                "facts": [f"{f} ." for f in program.facts],
                "queries": [serialize_query(q) for q in queries],
            })
        else:
            header = f"% {axr.kind}"
            if choices:
                header += f" {choices}"
            if len(outputs) > 1:
                header += f" ({i + 1}/{len(outputs)})"
            program_out = Program(axr.rules, program.facts, tuple(queries))
            chunks.append(header + "\n" + serialize(program_out))
    if args.format == "json":
        print(json.dumps(chunks))
    else:
        print("\n".join(chunks), end="")
    return EXIT_OK


def _report_lines(reports: list[CheckReport], fmt: str, timing: bool) -> tuple[str, bool]:
    hit_limit = any(r.verdict == "limit-exceeded" for r in reports)
    if fmt == "json":
        return json.dumps([r.to_json(timing=timing) for r in reports]), hit_limit
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["notion", "verdict", "set_size", "elapsed_ms", "steps"])
        for r in reports:
            w.writerow([r.notion, r.verdict, r.set_size,
                        round(r.elapsed_ms, 3) if timing else 0, r.steps])
        return buf.getvalue().rstrip("\n"), hit_limit
    lines = []
    for r in reports:
        line = f"{r.notion}: {r.verdict}"
        if r.limit is not None:
            line += f" ({r.limit})"
        if r.witness_term is not None:
            atom, term = r.witness_text()
            line += f" (witness {atom}, cyclic term {term})"
        line += f" [set_size={r.set_size}, steps={r.steps}"
        if timing:
            line += f", {r.elapsed_ms:.2f}ms"
        line += "]"
        lines.append(line)
    return "\n".join(lines), hit_limit


def _cmd_check(args: argparse.Namespace) -> int:
    if args.sing_cap is not None and args.notion != "all":
        raise _CliFailure(EXIT_INVALID, "error: --sing-cap needs --notion all")
    program = _load_program(args)
    _require_valid(program)
    rules = program.rules
    limits = _limits(args)
    if args.notion == "all":
        reports = check_pipeline(rules, limits, sing_cap=args.sing_cap or 0)
    elif args.notion == "emfa":
        reports = [is_emfa(rules, limits)]
    elif args.notion == "mfa-st":
        reports = [is_mfa(standard_axiomatisation(rules), limits, notion="mfa-st")]
    else:
        reports = [is_mfa(canonical_singularisation(rules), limits, notion="mfa-sing")]
    text, hit_limit = _report_lines(reports, args.format, not args.no_timing)
    print(text)
    return EXIT_LIMIT if hit_limit else EXIT_OK


BENCH_COLUMNS = [
    "id", "n_tgd_exist", "n_egd",
    "emfa_verdict", "emfa_ms",
    "mfa_st_verdict", "mfa_st_ms",
    "mfa_sing_verdict", "mfa_sing_ms",
]


def _cmd_bench(args: argparse.Namespace) -> int:
    corpus = sorted(Path(args.corpus).glob("*.rules"))
    if not corpus:
        raise _CliFailure(EXIT_INVALID, f"no .rules files under {args.corpus}")
    try:
        # UTF-8 whatever the locale; a file name's own bytes pass through.
        out = (open(args.out, "w", newline="", encoding="utf-8", errors="surrogateescape")
               if args.out else nullcontext(sys.stdout))
    except OSError as exc:
        message = f"{args.out}: cannot write ({exc.strerror or exc})"
        raise _CliFailure(EXIT_INVALID, message) from exc
    limits = _limits(args)
    rows = [BENCH_COLUMNS]
    failures = 0
    hit_limit = False
    with out as f:
        for path in corpus:
            try:
                program = _parse_file(str(path))
                _require_valid(program)
            except _CliFailure as exc:
                print(f"skipping {path.name}: {exc.message}", file=sys.stderr)
                failures += 1
                continue
            rules = program.rules
            by_notion = {r.notion: r for r in check_pipeline(rules, limits)}
            row = [path.stem, sum(1 for r in rules.tgds() if r.existentials), len(rules.egds())]
            for notion in ("emfa", "mfa-st", "mfa-sing"):
                r = by_notion[notion]
                hit_limit |= r.verdict == "limit-exceeded"
                row += [r.verdict, 0 if args.no_timing else round(r.elapsed_ms, 3)]
            rows.append(row)
        csv.writer(f).writerows(rows)
    return EXIT_INVALID if failures else EXIT_LIMIT if hit_limit else EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Formats its usage and its help once each: each argparse formatter
    refers to itself."""

    def format_usage(self) -> str:
        if "_usage" not in vars(self):
            self._usage = super().format_usage()
        return self._usage

    def format_help(self) -> str:
        if "_help" not in vars(self):
            self._help = super().format_help()
        return self._help


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="eqchase",
        description="Chase-based reasoning for existential rules with equality.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a program's well-formedness")
    p.add_argument("file")
    p.add_argument("--facts", action="append", metavar="FILE")
    _add_common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("chase", help="run the chase and print the result set")
    p.add_argument("file")
    p.add_argument("--facts", action="append", metavar="FILE")
    _add_common(p, limits=True, runs_chase=True, timing=True)
    p.set_defaults(fn=_cmd_chase)

    p = sub.add_parser("query", help="answer the program's queries")
    p.add_argument("file")
    p.add_argument("--facts", action="append", metavar="FILE")
    p.add_argument("--queries", action="append", metavar="FILE",
                   help="a file of '? ...' statements (repeatable)")
    p.add_argument("--query", action="append", metavar="TEXT",
                   help="an inline '? ...' statement (repeatable)")
    _add_common(p, limits=True, runs_chase=True)
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("axiomatise", help="emit an equality-free axiomatisation")
    p.add_argument("file")
    p.add_argument("--facts", action="append", metavar="FILE")
    p.add_argument("--kind", choices=("st", "sing", "sing-all"), required=True)
    p.add_argument("--sing-cap", type=_count, metavar="N",
                   help="with --kind sing-all: at most N singularisations (default 8)")
    _add_common(p)
    p.set_defaults(fn=_cmd_axiomatise)

    p = sub.add_parser("check", help="run acyclicity checks")
    p.add_argument("file")
    p.add_argument("--facts", action="append", metavar="FILE")
    p.add_argument("--notion", choices=("emfa", "mfa-st", "mfa-sing", "all"), default="all")
    p.add_argument("--sing-cap", type=_count, metavar="N",
                   help="with --notion all: also check up to N enumerated singularisations")
    _add_common(p, ("text", "json", "csv"), limits=True, timing=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("bench", help="run the check pipeline over a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--out", metavar="CSV")
    _add_common(p, (), limits=True, timing=True)
    p.set_defaults(fn=_cmd_bench)

    return ap


# Parsing leaves the parser as it was, so one serves every `main` call.
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a hit limit here;
        # `--help` exits 0.
        if exc.code:
            return EXIT_INVALID
        raise
    try:
        return args.fn(args)
    except _CliFailure as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
