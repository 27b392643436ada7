"""Workload inputs and their reference outputs.

Every workload is a cycle of CLI jobs.  `make_jobs(workload, seed)` builds
the cycle from the seed alone; the same seed gives byte-identical input
files.  Each job carries the reference its output is checked against, and
none of those references is computed by the code under test:

* chase-egd: steps, atom count and a digest of the whole stdout, pinned
  at the seed commit for a fixed pool of instances
  (`reference/chase_egd.json`, written by `pin.py`).  The seed picks one
  pool variant per instance size.  `verify_outside_loop` additionally
  checks each result against the naive `satisfies` oracle.
* chase-datalog: both queries are not entailed because the input graph is
  acyclic, and the `T` atoms equal the reachable pairs of a plain-Python
  closure (checked by `verify_outside_loop`).
* check-corpus: the four paper rule sets use the verdicts the acceptance
  suite asserts (the few it does not assert are pinned at the seed
  commit, see PAPER_SETS); the generated chain families have verdicts
  known by construction, see `chain_family`.

Job sizes are fixed strata, so every seed runs about the same work and
the seed varies the inputs within each stratum.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = ("chase-egd", "chase-datalog", "check-corpus")
# Workloads with checks outside the timed loop (verify_outside_loop).
VERIFIED = ("chase-egd", "chase-datalog")
EXIT_OK = 0


@dataclass(frozen=True)
class Job:
    """One CLI call, `eqchase <argv>`, on the input file `<name>.rules`
    holding `text`.  `expect` is the reference the output must match."""

    name: str
    text: str
    argv: tuple[str, ...]
    expect: object

    def cli_args(self, directory: Path) -> list[str]:
        return [self.argv[0], str(directory / f"{self.name}.rules"), *self.argv[1:]]


def write_inputs(jobs: list[Job], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        (directory / f"{job.name}.rules").write_text(job.text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# chase-egd: the ROADMAP (b) family over n A facts and n random E facts.

EGD_RULES = (
    "A(X) -> exists W . R(X,W), B(W) .\n"
    "R(X,Y), R(X,Z) -> Y = Z .\n"
    "E(X,Y) -> R(X,Y) .\n"
    "R(X,Y), B(Y) -> C(X) .\n"
)
# The pool pinned in reference/chase_egd.json: one instance per
# (size, variant).  Sizes are strata of the range 20..48, so every seed
# runs the same mix of sizes and differs only in the random E facts.  An
# odd number of strata puts the median and the 90th percentile inside a
# stratum rather than on the edge between two.
EGD_SIZES = tuple(range(20, 50, 2))
EGD_VARIANTS = 6
EGD_REFERENCE = HERE / "reference" / "chase_egd.json"
EGD_ARGV = ("chase", "--format", "json", "--no-timing")


def egd_instance(n: int, variant: int) -> str:
    rng = random.Random(f"chase-egd:{n}:{variant}")
    lines = [f"A(c{i}) ." for i in range(n)]
    lines += [f"E(c{rng.randrange(n)},c{rng.randrange(n)}) ." for _ in range(n)]
    return EGD_RULES + "\n".join(lines) + "\n"


def _egd_jobs(seed: int) -> list[Job]:
    pinned = json.loads(EGD_REFERENCE.read_text())
    rng = random.Random(f"chase-egd:{seed}")
    jobs = []
    for n in EGD_SIZES:
        v = rng.randrange(EGD_VARIANTS)
        name = f"egd-n{n}-v{v}"
        jobs.append(Job(name, egd_instance(n, v), EGD_ARGV, pinned[name]))
    rng.shuffle(jobs)
    return jobs


def _check_egd(job: Job, out: str) -> Optional[str]:
    ref = job.expect
    doc = json.loads(out)
    got = (doc["outcome"], doc["steps"], doc["atom_count"], digest(out))
    want = ("terminated", ref["steps"], ref["atoms"], ref["digest"])
    if got != want:
        return f"got {got}, pinned {want}"
    return None


# ---------------------------------------------------------------------------
# chase-datalog: transitive closure over random DAGs, two queries per job.

TC_RULES = "E(X,Y) -> T(X,Y) .\nT(X,Y), E(Y,Z) -> T(X,Z) .\n"
TC_QUERIES = (
    "? exists X . T(X,X) .\n"
    "? exists X,Y,Z . T(X,Y),T(Y,Z),T(Z,X) .\n"
)
TC_JOBS = 15  # odd, for the reason given at EGD_SIZES
TC_CHAINS = 3
TC_SHORTEST = 7
TC_ARGV = ("query", "--format", "json")


def reachable_pairs(edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    succ: dict[int, list[int]] = {}
    for i, j in edges:
        succ.setdefault(i, []).append(j)
    out = set()
    for start in succ:
        stack, seen = list(succ[start]), set()
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succ.get(v, ()))
        out.update((start, v) for v in seen)
    return out


def _dag(rng: random.Random, lengths: list[int]) -> list[tuple[int, int]]:
    """Disjoint paths of the given lengths, plus a forward shortcut from
    every second node of a path to a random later node of the same path,
    with randomly permuted node names and edge order.

    Every edge points forward along its path, so the graph is acyclic.
    The closure size and the size of the T(X,Y),E(Y,Z) join depend on the
    lengths alone, so every seed runs about the same work."""
    names = list(range(sum(lengths)))
    rng.shuffle(names)
    edges = []
    for length in lengths:
        path, names = names[:length], names[length:]
        edges += zip(path, path[1:])
        edges += [(path[i], path[rng.randrange(i + 2, length)]) for i in range(0, length - 2, 2)]
    rng.shuffle(edges)
    return edges


def _tc_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"chase-datalog:{seed}")
    jobs = []
    for k in range(TC_JOBS):
        # Job k has paths one node longer than job k - 1 in total.
        lengths = [TC_SHORTEST + (k + c) // TC_CHAINS for c in range(TC_CHAINS)]
        edges = _dag(rng, lengths)
        facts = "".join(f"E(v{i},v{j}) .\n" for i, j in edges)
        name = f"tc-{k:02d}-l{'-'.join(map(str, lengths))}"
        jobs.append(Job(name, TC_RULES + facts + TC_QUERIES, TC_ARGV, edges))
    rng.shuffle(jobs)
    return jobs


def _check_tc(job: Job, out: str) -> Optional[str]:
    statuses = [q["status"] for q in json.loads(out)]
    if statuses != ["not-entailed", "not-entailed"]:
        return f"query statuses {statuses}, expected both not-entailed on a DAG"
    return None


# ---------------------------------------------------------------------------
# check-corpus: the paper rule sets plus generated chain families.

NOTIONS = ["emfa", "mfa-st", "mfa-sing"]
CHECK_ARGV = ("check", "--notion", "all", "--format", "json", "--no-timing")

# name -> (rules, verdicts for emfa, mfa-st, mfa-sing).  Sources:
#   thm2: criterion 3 (emfa, mfa-st); tests/test_cli.py (mfa-sing).
#   ex3:  criterion 4 (emfa; every singularisation cyclic); mfa-st pinned.
#   ex4:  criterion 5 (emfa; both singularisations acyclic); mfa-st
#         follows from criterion 6 (mfa-st acyclic implies emfa acyclic).
#   thm4: pinned at the seed commit; no test asserts its verdicts.
PAPER_SETS = {
    "thm2": (
        "A(X) -> exists W . R(X,W), B(W) .\n"
        "R(X,Y), R(X,Z) -> Y = Z .\n",
        ["acyclic", "cyclic", "acyclic"],
    ),
    "thm4": (
        "B(X), C(X) -> exists Y . R(X,Y), B(Y) .\n"
        "B(X), C(X) -> exists Z . R(X,Z), C(Z) .\n"
        "R(X,Y) -> X = Y .\n",
        ["acyclic", "cyclic", "cyclic"],
    ),
    "ex3": (
        "A(X) -> exists V . R(X,V), B(V) .\n"
        "A(X) -> exists W . S(X,W), C(W) .\n"
        "C(X), B(X) -> A(X) .\n"
        "R(X,Y) -> X = Y .\n"
        "S(X,Y) -> X = Y .\n",
        ["acyclic", "cyclic", "cyclic"],
    ),
    "ex4": (
        "A(X) -> exists V . R(X,V), B(V) .\n"
        "B(X) -> exists W . R(X,W), C(W) .\n"
        "R(X,Y), R(X,Z) -> Y = Z .\n",
        ["cyclic", "cyclic", "acyclic"],
    ),
}
CHAIN_ARITIES = (2, 3, 4)
# Lengths stay at most 8: the first cyclic term of a loop-back family has
# depth length + 2, which keeps every verdict inside the CLI's default
# --max-depth 10, so no job ends in a limit.
CHAIN_LENGTHS = range(2, 9)
CHAIN_PREDICATES = ("P", "Q", "Link", "Step")


def chain_family(rng: random.Random, length: int, arity: int, loop: bool) -> tuple[str, list[str]]:
    """P0 -> P1 -> ... -> PL, each step shifting the arguments left and
    adding a fresh null, plus the EGD PL(X1..Xk) -> X1 = Xk and, with
    `loop`, the rule PL(X1..Xk) -> P0(X1..Xk).  The seed picks the
    predicate names; rule order stays fixed because the saturation work
    before the first cyclic term depends on it.

    Verdicts by construction (k >= 2):
    * no loop-back, emfa: the only predicate a merged null occurs in is PL,
      which no TGD reads, so the closure nests symbols in chain order only.
    * no loop-back, mfa-st: the replacement rules carry the equated null
      back into an earlier P_i, whose chain then nests the null's symbol
      in itself (the Theorem 2 effect) -> cyclic.
    * no loop-back, mfa-sing: no body repeats a variable, so no rule reads
      `eq` and the set behaves as its TGDs alone -> acyclic.
    * loop-back: every notion keeps the TGD chain verbatim and the closure
      only grows, so the second lap nests f_W0 in itself -> all cyclic.
    """
    p = rng.choice(CHAIN_PREDICATES)
    xs = [f"X{i + 1}" for i in range(arity)]
    args = ",".join(xs)
    lines = [
        f"{p}{i}({args}) -> exists W{i} . {p}{i + 1}({','.join(xs[1:] + [f'W{i}'])}) ."
        for i in range(length)
    ]
    lines.append(f"{p}{length}({args}) -> X1 = X{arity} .")
    if loop:
        lines.append(f"{p}{length}({args}) -> {p}0({args}) .")
        verdicts = ["cyclic", "cyclic", "cyclic"]
    else:
        verdicts = ["acyclic", "cyclic", "acyclic"]
    return "\n".join(lines) + "\n", verdicts


def _check_jobs(seed: int) -> list[Job]:
    """Every chain shape once per cycle, so each seed runs the same shapes
    and differs in names and job order."""
    rng = random.Random(f"check-corpus:{seed}")
    jobs = [Job(f"paper-{name}", text, CHECK_ARGV, verdicts)
            for name, (text, verdicts) in PAPER_SETS.items()]
    for arity in CHAIN_ARITIES:
        for loop in (False, True):
            for length in CHAIN_LENGTHS:
                text, verdicts = chain_family(rng, length, arity, loop)
                name = f"chain-l{length}-k{arity}-{'loop' if loop else 'open'}"
                jobs.append(Job(name, text, CHECK_ARGV, verdicts))
    rng.shuffle(jobs)
    return jobs


def _check_check(job: Job, out: str) -> Optional[str]:
    doc = json.loads(out)
    notions = [d["notion"] for d in doc]
    verdicts = [d["verdict"] for d in doc]
    if notions != NOTIONS or verdicts != job.expect:
        return f"got {list(zip(notions, verdicts))}, expected {job.expect}"
    if any(("witness" in d) != (d["verdict"] == "cyclic") for d in doc):
        return "a witness is missing or reported for a verdict other than cyclic"
    return None


# ---------------------------------------------------------------------------

_MAKE = {"chase-egd": _egd_jobs, "chase-datalog": _tc_jobs, "check-corpus": _check_jobs}
_CHECK = {"chase-egd": _check_egd, "chase-datalog": _check_tc, "check-corpus": _check_check}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job cycle of one workload, built from the seed alone."""
    return _MAKE[workload](seed)


def check_output(workload: str, job: Job, code: int, out: str) -> Optional[str]:
    """None when the job's exit code and stdout match its reference, else
    a description of the mismatch."""
    if code != EXIT_OK:
        return f"exit code {code}, expected {EXIT_OK}"
    try:
        return _CHECK[workload](job, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def verify_outside_loop(workload: str, jobs: list[Job], directory: Path) -> list[str]:
    """Checks too slow for the timed loop, run once per distinct input.
    Returns one message per failed job."""
    from eqchase import Ontology, Terminated, chase, parse, satisfies
    from eqchase.cli import main

    failures = []
    for job in jobs:
        path = directory / f"{job.name}.rules"
        if workload == "chase-egd":
            program = parse(path.read_text())
            outcome = chase(Ontology(program.rules, program.facts))
            if not isinstance(outcome, Terminated):
                failures.append(f"{job.name}: chase did not terminate")
            elif not all(satisfies(outcome.result, r) for r in program.rules):
                failures.append(f"{job.name}: result violates a rule (satisfies oracle)")
        elif workload == "chase-datalog":
            code, out, _ = run_cli(main, ["chase", str(path), "--format", "json", "--no-timing"])
            want = {f"T(v{i},v{j})" for i, j in reachable_pairs(job.expect)}
            want |= {f"E(v{i},v{j})" for i, j in job.expect}
            got = set(json.loads(out)["atoms"]) if code == EXIT_OK else None
            if got != want:
                failures.append(f"{job.name}: T atoms differ from the reachable pairs")
    return failures


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()
