"""Per-layer tracing from outside the library.

`Tracer.install()` wraps the public names each module looks up, records
spans (name, start, end, parent) and counts in memory, and
`uninstall()` puts the originals back.  Nothing in `eqchase` is edited.

Wrapped names, where the caller looks them up:
  eqchase.cli         parse, validate, validate_query, chase, homomorphism
  eqchase.chase       validate, match_conjunction
  eqchase.acyclicity  is_emfa, emfa_set, match_conjunction,
                      standard_axiomatisation, canonical_singularisation
  eqchase.model       AtomSet.add, AtomSet.rewrite_in_place (under a chase
                      run), AtomSet.bucket, AtomSet.arg0_bucket (under a query)
Step intervals come from the public `on_step` argument of `chase`.

Counts go to the innermost open span, and a generator's bindings are
counted as they are consumed, so query matches are not select matches.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

perf = time.perf_counter

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"
NOTION_SPANS = {"emfa": "acyclicity.emfa", "mfa-st": "acyclicity.mfa_st",
                "mfa-sing": "acyclicity.mfa_sing"}


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "calls", "matches", "info")

    def __init__(self, index: int, name: str, start: float, parent: int):
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.calls = 0
        self.matches = 0
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].index if self.stack else -1
        span = Span(len(self.spans), name, perf(), parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def timed(self, name, fn, record=None):
        """Wrap fn in a span; record(span, result) may attach counts once
        the call has returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                record(span, result)
            return result

        return wrapper

    def counted(self, fn):
        """Wrap a generator function: one call and one match per yielded
        binding, each charged to the innermost span open at that moment."""
        stack = self.stack

        def consume(gen):
            for binding in gen:
                stack[-1].matches += 1
                yield binding

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack[-1].calls += 1
            return consume(fn(*args, **kwargs))

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        import eqchase.cli  # noqa: F401 - loads every module below

        cli = sys.modules["eqchase.cli"]
        # `import eqchase.chase` would give the chase *function*: the
        # package rebinds that name.
        chase_mod = sys.modules["eqchase.chase"]
        acyc = sys.modules["eqchase.acyclicity"]
        model = sys.modules["eqchase.model"]

        def statements(span, program):
            span.info = len(program.rules) + len(program.facts) + len(program.queries)

        def rules_out(span, axr):
            span.info = len(axr.rules)

        def saturated(span, outcome):
            span.info = (len(outcome.atoms), outcome.steps)

        self._patch(cli, "parse", self.timed("parser.parse", cli.parse, statements))
        for owner in (cli, chase_mod):
            self._patch(owner, "validate", self.timed("model.validate", owner.validate))
        self._patch(cli, "validate_query", self.timed("model.validate", cli.validate_query))
        self._patch(cli, "chase", self._chase(cli.chase))
        self._patch(cli, "homomorphism", self.timed("chase.query", cli.homomorphism))
        for owner in (chase_mod, acyc):
            self._patch(owner, "match_conjunction", self.counted(owner.match_conjunction))
        for name in ("standard_axiomatisation", "canonical_singularisation"):
            self._patch(acyc, name,
                        self.timed("axiomatisation.axiomatise", getattr(acyc, name), rules_out))
        self._patch(acyc, "emfa_set", self.timed("acyclicity.saturate", acyc.emfa_set, saturated))
        self._patch(acyc, "is_emfa", self._is_emfa(acyc.is_emfa))
        self._patch(model.AtomSet, "add", self._in_chase("chase.insert", model.AtomSet.add))
        self._patch(model.AtomSet, "rewrite_in_place",
                    self._in_chase("chase.merge", model.AtomSet.rewrite_in_place))
        for name in ("bucket", "arg0_bucket"):
            self._patch(model.AtomSet, name, self._in_query(getattr(model.AtomSet, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def _chase(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            user = kwargs.pop("on_step", None)
            stamps: list[float] = []

            def on_step(*step):
                stamps.append(perf())
                if user is not None:
                    user(*step)

            span = self.open("chase.run")
            try:
                outcome = fn(*args, on_step=on_step, **kwargs)
            finally:
                self.close(span)
            state = outcome.result if hasattr(outcome, "result") else outcome.partial
            t = outcome.trace
            span.info = {"steps": t.steps, "tgd": t.tgd_steps, "egd": t.egd_steps,
                         "atoms": len(state), "stamps": stamps}
            return outcome

        return wrapper

    def _is_emfa(self, fn):
        spans = {notion: self.timed(name, fn) for notion, name in NOTION_SPANS.items()}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            notion = kwargs.get("notion", args[3] if len(args) > 3 else "emfa")
            return spans[notion](*args, **kwargs)

        return wrapper

    def _in_chase(self, name, method):
        """A span for an AtomSet method only when called by the chase run
        directly; the saturation's own calls pass through untimed."""
        stack = self.stack

        @functools.wraps(method)
        def wrapper(aset, *args):
            if not stack or stack[-1].name != "chase.run":
                return method(aset, *args)
            swept = len(aset)
            span = self.open(name)
            try:
                result = method(aset, *args)
            finally:
                self.close(span)
            span.info = swept if name == "chase.merge" else int(bool(result))
            return result

        return wrapper

    def _in_query(self, method):
        """Count the candidate atoms an index lookup hands the query search,
        the search's work even when it yields no binding."""
        stack = self.stack

        @functools.wraps(method)
        def wrapper(aset, *args):
            result = method(aset, *args)
            if stack and stack[-1].name == "chase.query":
                span = stack[-1]
                span.info = (span.info or 0) + len(result)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span as [name, start, end, parent, calls, matches]."""
        rows = [[s.name, s.start, s.end, s.parent, s.calls, s.matches] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}))


# ---------------------------------------------------------------------------
# From spans to per-layer metrics


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs: int, traced_s: float, untraced_s: float) -> dict:
    """Per-job means of every metric in layers.json over `jobs` traced
    jobs; ratios are taken over the totals."""
    spans = tracer.spans
    own = self_times(spans)
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    matches: dict[str, int] = {}
    info: dict[str, list] = {}
    for s, t in zip(spans, own):
        ms[s.name] = ms.get(s.name, 0.0) + (s.end - s.start) * 1000.0
        self_ms[s.name] = self_ms.get(s.name, 0.0) + t * 1000.0
        calls[s.name] = calls.get(s.name, 0) + s.calls
        matches[s.name] = matches.get(s.name, 0) + s.matches
        if s.info is not None:
            info.setdefault(s.name, []).append(s.info)

    runs = info.get("chase.run", [])
    early, late = [], []
    for run in runs:
        gaps = [b - a for a, b in zip(run["stamps"], run["stamps"][1:])]
        tenth = max(1, len(gaps) // 10)
        early += gaps[:tenth]
        late += gaps[-tenth:]
    steps = sum(r["steps"] for r in runs)
    saturations = info.get("acyclicity.saturate", [])
    derived = sum(d for _, d in saturations)

    totals = {
        "parser.parse_ms": ms.get("parser.parse", 0.0),
        "parser.statements": sum(info.get("parser.parse", [])),
        "model.validate_ms": ms.get("model.validate", 0.0),
        "axiomatisation.axiomatise_ms": ms.get("axiomatisation.axiomatise", 0.0),
        "axiomatisation.rules_out": sum(info.get("axiomatisation.axiomatise", [])),
        "acyclicity.emfa_ms": ms.get("acyclicity.emfa", 0.0),
        "acyclicity.mfa_st_ms": ms.get("acyclicity.mfa_st", 0.0),
        "acyclicity.mfa_sing_ms": ms.get("acyclicity.mfa_sing", 0.0),
        "acyclicity.atoms": sum(a for a, _ in saturations),
        "acyclicity.matches": matches.get("acyclicity.saturate", 0),
        "chase.run_ms": ms.get("chase.run", 0.0),
        "chase.steps": steps,
        "chase.tgd_steps": sum(r["tgd"] for r in runs),
        "chase.egd_steps": sum(r["egd"] for r in runs),
        "chase.atoms": sum(r["atoms"] for r in runs),
        "chase.select_ms": self_ms.get("chase.run", 0.0),
        "chase.select.calls": calls.get("chase.run", 0),
        "chase.select.matches": matches.get("chase.run", 0),
        "chase.insert_ms": ms.get("chase.insert", 0.0),
        "chase.insert.atoms": sum(info.get("chase.insert", [])),
        "chase.merge_ms": ms.get("chase.merge", 0.0),
        "chase.merge.calls": len(info.get("chase.merge", [])),
        "chase.merge.atoms_swept": sum(info.get("chase.merge", [])),
        "chase.query_ms": ms.get("chase.query", 0.0),
        "chase.query.matches": matches.get("chase.query", 0),
        "chase.query.candidates": sum(info.get("chase.query", [])),
        "cli.self_ms": self_ms.get("cli.job", 0.0),
    }
    out = {name: value / jobs for name, value in totals.items()}
    out["acyclicity.useful_ratio"] = _ratio(derived, matches.get("acyclicity.saturate", 0))
    out["chase.select.useful_ratio"] = _ratio(steps, matches.get("chase.run", 0))
    out["chase.step_ms.early"] = _mean(early) * 1000.0
    out["chase.step_ms.late"] = _mean(late) * 1000.0
    out["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    return out


def layer_table() -> list[dict]:
    return json.loads(LAYERS_FILE.read_text())["metrics"]
