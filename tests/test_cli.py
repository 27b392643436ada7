import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from eqchase import (
    ChaseLimits, Functional, Ontology, Unknown, entails, is_mfa, parse, standard_axiomatisation,
)
from eqchase.cli import main

DATA = Path(__file__).parent / "data"
THM2 = str(DATA / "thm2.rules")
AA = str(DATA / "aa.facts")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", THM2, "--facts", AA)
    assert code == 0
    assert out.strip() == "ok"


def test_validate_reports_violations(capsys, tmp_path):
    bad = tmp_path / "bad.rules"
    bad.write_text("A(X) -> exists W . R(X,W) .\nUnknown(a) .\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "does not occur" in out


def test_validate_reports_a_duplicate_existential_once(capsys, tmp_path):
    bad = tmp_path / "dup.rules"
    bad.write_text("A(X) -> exists W, W . R(X,W) .\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert out.splitlines() == ["rule 1: duplicate existential variable"]


def test_validate_json(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", THM2, "--facts", AA, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}
    bad = tmp_path / "bad.rules"
    bad.write_text("A(X) -> B(X) .\nC(a) .\n")
    code, out, _ = run(capsys, "validate", str(bad), "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "ok": False,
        "violations": ["fact 1 (C(a)): predicate 'C' does not occur in the rule set"],
    }


def test_validate_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "broken.rules"
    bad.write_text("A( .\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "broken.rules:1:" in err


def test_chase_terminates_exit_zero(capsys):
    code, out, _ = run(capsys, "chase", THM2, "--facts", AA)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:-1] == ["A(a)", "B(a)", "R(a,a)"]
    assert "terminated" in lines[-1]


def test_chase_limit_exit_code(capsys, tmp_path):
    # the standard axiomatisation of thm2 diverges, so cap the depth
    code, out, _ = run(capsys, "axiomatise", THM2, "--kind", "st")
    st_file = tmp_path / "st.rules"
    st_file.write_text(out)
    code, out, _ = run(
        capsys, "chase", str(st_file), "--facts", AA, "--max-depth", "6", "--format", "json"
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["outcome"] == "limit-exceeded"
    assert doc["limit"] == "max_term_depth"
    assert doc["max_term_depth"] == 6


@pytest.mark.parametrize("depth,code,last", [
    ("0", 2, "% stopped after 0 steps: max_term_depth exceeded"),
    ("1", 0, "% terminated after 1 steps"),
])
def test_chase_depth_cap_applies_to_a_closed_tgd(capsys, tmp_path, depth, code, last):
    # A closed head copies terms of depth 1 from the state, so only a cap
    # below 1 stops it.
    path = tmp_path / "copy.rules"
    path.write_text("E(X,Y) -> T(X,Y) .\nE(a,b) .\n")
    got, out, _ = run(capsys, "chase", str(path), "--max-depth", depth, "--no-timing")
    assert got == code
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_chase_renders_terms_past_the_recursion_limit(capsys, tmp_path, fmt):
    path = tmp_path / "loop.rules"
    path.write_text("A(X) -> exists Y . R(X,Y), A(Y) .\nA(a) .\n")
    code, out, err = run(capsys, "chase", str(path), "--max-depth", "300", "--format", fmt,
                         "--no-timing")
    assert code == 2
    assert "internal error" not in out + err
    deepest = "f_Y(" * 299 + "a" + ")" * 299
    if fmt == "json":
        doc = json.loads(out)
        assert doc["limit"] == "max_term_depth"
        assert f"A({deepest})" in doc["atoms"]
    else:
        assert f"A({deepest})" in out.splitlines()


def test_chase_merges_terms_past_the_recursion_limit(capsys, tmp_path):
    # A 500-rule chain builds a term of depth 501, and the EGD merges it
    # into c: the merge direction compares the two terms' order keys.
    path = tmp_path / "chain.rules"
    path.write_text(
        "".join(f"A{i}(X) -> exists Y{i} . R(X,Y{i}), A{i + 1}(Y{i}) .\n" for i in range(500))
        + "A500(X), C(Y) -> X = Y .\nA0(a) .\nC(c) .\n"
    )
    code, out, err = run(capsys, "chase", str(path), "--max-depth", "2000", "--no-timing")
    assert code == 0
    assert "internal error" not in out + err
    assert "A500(c)" in out.splitlines()


def test_chase_timeout_zero_stops_before_the_first_step(capsys):
    code, out, _ = run(capsys, "chase", THM2, "--facts", AA, "--timeout-ms", "0")
    assert code == 2
    assert out.splitlines() == ["A(a)", "R(a,a)", "% stopped after 0 steps: wall_clock_ms exceeded"]


def test_chase_json_deterministic_with_no_timing(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "chase", THM2, "--facts", AA, "--format", "json", "--no-timing"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "elapsed_ms" not in outs[0]


def test_query_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "query",
        THM2,
        "--facts",
        AA,
        "--query",
        "? exists X, Y . R(X,Y), B(Y) .",
        "--query",
        "? exists X . C(X) .",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("entailed:")
    assert lines[1].startswith("not-entailed:")


def test_query_reads_a_queries_file(capsys, tmp_path):
    queries = tmp_path / "queries.rules"
    queries.write_text("? exists X . B(X) .\n? exists X . C(X) .\n")
    code, out, _ = run(capsys, "query", THM2, "--facts", AA, "--queries", str(queries))
    assert code == 0
    assert out.splitlines() == [
        "entailed: ? exists X . B(X) .  [X=a]",
        "not-entailed: ? exists X . C(X) .",
    ]


@pytest.mark.parametrize("flag", ["--query", "--queries"])
def test_a_query_predicate_keeps_its_rule_arity(capsys, tmp_path, flag):
    # Inside one file the parser rejects `R(X)`; from another source the
    # query is checked against the rules, as a fact is.
    path = tmp_path / "rules.rules"
    path.write_text("A(X) -> exists Y . R(X,Y) .\nA(a) .\n")
    text = "? exists X . R(X) .\n"
    if flag == "--queries":
        (tmp_path / "q.rules").write_text(text)
        text = str(tmp_path / "q.rules")
    got = run(capsys, "query", str(path), flag, text)
    assert got == (1, "", "query: predicate 'R' used with arities 2 and 1\n")


@pytest.mark.parametrize("flag, text, other", [
    ("--query", "B(X) -> C(X) .", "rules"),
    ("--queries", "? exists X . C(X) .\nA(b) .\n", "facts"),
    ("--facts", "A(b) .\nB(X) -> C(X) .\n", "rules"),
])
def test_an_extra_source_holds_statements_of_its_own_kind_only(capsys, tmp_path, flag, text,
                                                               other):
    # A rule or fact from a query source, or a rule from a facts file,
    # would silently join the program.
    source = repr(text)
    if flag != "--query":
        path = tmp_path / "extra.rules"
        path.write_text(text)
        text = source = str(path)
    got = run(capsys, "query", THM2, flag, text, "--query", "? exists X . C(X) .")
    kind = "facts" if flag == "--facts" else "queries"
    assert got == (1, "", f"{flag} {source}: holds {other}; {flag} takes {kind} only\n")


def test_query_prefixes_every_diagnostic_of_an_inline_query(capsys):
    code, _, err = run(capsys, "query", THM2, "--query", "? A(X Y) . ? B(")
    assert code == 1
    assert err.splitlines() == [
        "--query: 1:7: expected ')', found 'Y'",
        "--query: 1:16: expected a constant or variable",
    ]


def test_query_requires_queries(capsys):
    code, _, err = run(capsys, "query", THM2, "--facts", AA)
    assert code == 1
    assert "no queries" in err


def test_axiomatise_st_roundtrips(capsys):
    code, out, _ = run(capsys, "axiomatise", THM2, "--kind", "st")
    assert code == 0
    from eqchase import parse

    program = parse("".join(l + "\n" for l in out.splitlines() if not l.startswith("%")))
    assert len(program.rules) == 11


def test_axiomatise_sing_prints_the_canonical_singularisation(capsys):
    code, out, _ = run(capsys, "axiomatise", THM2, "--kind", "sing")
    assert code == 0
    assert out.splitlines() == [
        "% singularisation [{}, {'X': 1}]",
        "A(X) -> exists W . R(X,W), B(W) .",
        "R(X,Y), R(X__2,Z), eq(X,X__2) -> eq(Y,Z) .",
        "A(X1) -> eq(X1,X1) .",
        "R(X1,X2) -> eq(X1,X1), eq(X2,X2) .",
        "B(X1) -> eq(X1,X1) .",
        "eq(X,Y) -> eq(Y,X) .",
        "eq(X,Y), eq(Y,Z) -> eq(X,Z) .",
    ]


def test_axiomatise_sing_all_text_headers(capsys):
    code, out, _ = run(capsys, "axiomatise", str(DATA / "thm4.rules"), "--kind", "sing-all")
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("%")] == [
        "% singularisation [{'X': 1}, {'X': 1}, {}] (1/4)",
        "% singularisation [{'X': 1}, {'X': 2}, {}] (2/4)",
        "% singularisation [{'X': 2}, {'X': 1}, {}] (3/4)",
        "% singularisation [{'X': 2}, {'X': 2}, {}] (4/4)",
    ]


def test_axiomatise_sing_all(capsys):
    code, out, _ = run(capsys, "axiomatise", str(DATA / "thm4.rules"), "--kind", "sing-all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 4
    assert all(d["kind"] == "singularisation" for d in doc)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ["thm2", "thm4", "ex3", "ex4", "query"])
def test_axiomatise_sing_is_the_first_of_sing_all(capsys, tmp_path, fmt, name):
    path = DATA / f"{name}.rules"
    if name == "query":
        path = tmp_path / "query.rules"
        path.write_text("A(X) -> exists W . R(X,W), B(W) .\nR(X,Y), R(X,Z) -> Y = Z .\n"
                        "A(a) .\n? exists X, Y . R(X,Y), B(Y), R(X,X) .\n")
    sing = run(capsys, "axiomatise", str(path), "--kind", "sing", "--format", fmt)
    first = run(capsys, "axiomatise", str(path), "--kind", "sing-all", "--sing-cap", "1",
                "--format", fmt)
    assert sing == first
    assert sing[0] == 0 and sing[1]


def test_check_all_json(capsys):
    code, out, _ = run(
        capsys, "check", THM2, "--notion", "all", "--format", "json", "--no-timing"
    )
    assert code == 0
    doc = json.loads(out)
    assert [d["notion"] for d in doc] == ["emfa", "mfa-st", "mfa-sing"]
    assert [d["verdict"] for d in doc] == ["acyclic", "cyclic", "acyclic"]
    assert doc[1]["witness"]["term"]
    assert all("elapsed_ms" not in d for d in doc)
    # byte-identical on a second run
    code, out2, _ = run(
        capsys, "check", THM2, "--notion", "all", "--format", "json", "--no-timing"
    )
    assert out2 == out


def test_check_single_notion_text(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "ex4.rules"), "--notion", "emfa")
    assert code == 0
    assert out.startswith("emfa: cyclic")


@pytest.mark.parametrize("notion, line", [
    ("mfa-st", "mfa-st: cyclic (witness R(f_W(*),f_W(f_W(*))), cyclic term f_W(f_W(*)))"
               " [set_size=13, steps=9]"),
    ("mfa-sing", "mfa-sing: acyclic [set_size=9, steps=5]"),
])
def test_check_one_axiomatised_notion(capsys, notion, line):
    code, out, _ = run(capsys, "check", THM2, "--notion", notion, "--no-timing")
    assert code == 0
    assert out.splitlines() == [line]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_cyclic_witness_term_is_rendered_once(capsys, monkeypatch, fmt):
    """The witness term is an argument of the witness atom, so the report
    renders it once, with the atom, in either format; the strings are
    those of `str` on the atom and on the term."""
    report = is_mfa(standard_axiomatisation(parse(Path(THM2).read_text()).rules),
                    notion="mfa-st")
    want = {"atom": str(report.witness_atom), "term": str(report.witness_term)}
    assert want == {"atom": "R(f_W(*),f_W(f_W(*)))", "term": "f_W(f_W(*))"}
    assert report.to_json(timing=False)["witness"] == want
    rendered = []
    render = Functional._render

    def counting(self, full):
        rendered.append(render(self, full))
        return rendered[-1]

    monkeypatch.setattr(Functional, "_render", counting)
    code, out, _ = run(capsys, "check", THM2, "--notion", "mfa-st", "--no-timing",
                       "--format", fmt)
    assert code == 0
    assert rendered.count(want["term"]) == 1
    if fmt == "json":
        assert json.loads(out)[0]["witness"] == want
    else:
        assert f"(witness {want['atom']}, cyclic term {want['term']})" in out


@pytest.mark.parametrize("notion", ["emfa", "mfa-st", "mfa-sing"])
def test_a_single_notion_times_its_saturation_without_the_compile(capsys, monkeypatch, notion):
    """Each rule's compile is slowed by 20 ms, so a time that held one
    compile would reach 20 ms."""
    from eqchase.acyclicity import _compile

    def slow(rule):
        time.sleep(0.02)
        return _compile(rule)

    monkeypatch.setattr("eqchase.acyclicity._compile", slow)
    code, out, _ = run(capsys, "check", THM2, "--notion", notion, "--format", "json")
    assert code == 0
    [report] = json.loads(out)
    assert report["notion"] == notion
    assert report["elapsed_ms"] < 20


def test_check_csv_format(capsys):
    code, out, _ = run(
        capsys, "check", THM2, "--notion", "all", "--format", "csv", "--no-timing"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["notion", "verdict", "set_size", "elapsed_ms", "steps"]
    assert len(rows) == 4


def test_bench_writes_csv(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("thm2", "thm4", "ex3", "ex4"):
        (corpus / f"{name}.rules").write_text((DATA / f"{name}.rules").read_text())
    out_csv = tmp_path / "results.csv"
    code, _, _ = run(capsys, "bench", str(corpus), "--out", str(out_csv), "--no-timing")
    assert code == 0
    with out_csv.open() as f:
        rows = list(csv.reader(f))
    assert rows[0] == [
        "id", "n_tgd_exist", "n_egd",
        "emfa_verdict", "emfa_ms", "mfa_st_verdict", "mfa_st_ms",
        "mfa_sing_verdict", "mfa_sing_ms",
    ]
    by_id = {r[0]: r for r in rows[1:]}
    assert set(by_id) == {"thm2", "thm4", "ex3", "ex4"}
    assert by_id["thm2"][1:3] == ["1", "1"]
    assert by_id["thm2"][3] == "acyclic" and by_id["thm2"][5] == "cyclic"
    assert by_id["ex4"][3] == "cyclic" and by_id["ex4"][7] == "acyclic"
    assert all(r[4] == "0" for r in rows[1:])  # --no-timing zeroes the ms columns


def test_bench_writes_utf8_csv_under_an_ascii_locale(tmp_path):
    """Under an ASCII locale, with no UTF-8 coercion, a non-ASCII file
    name reaches the CSV as its own UTF-8 bytes."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "日本.rules").write_bytes((DATA / "thm2.rules").read_bytes())
    out_csv = tmp_path / "results.csv"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from eqchase.cli import main; sys.exit(main())",
         "bench", str(corpus), "--out", str(out_csv), "--no-timing"],
        env=env, capture_output=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    rows = out_csv.read_bytes().decode("utf-8").splitlines()
    assert rows[1:] == ["日本,1,1,acyclic,0,cyclic,0,acyclic,0"]


def test_bench_skips_bad_files(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "good.rules").write_text((DATA / "thm2.rules").read_text())
    (corpus / "bad.rules").write_text("A( .\n")
    (corpus / "invalid.rules").write_text("A(X) -> B(X) .\nC(a) .\n")
    # `check` rejects a query with a constant, so `bench` skips it too.
    (corpus / "query.rules").write_text("A(X) -> exists W . R(X,W), B(W) .\n? A(a) .\n")
    code, out, err = run(capsys, "bench", str(corpus))
    assert code == 1
    assert "skipping bad.rules" in err
    assert ("skipping invalid.rules: fact 1 (C(a)): predicate 'C' does not occur"
            " in the rule set") in err.splitlines()
    assert "skipping query.rules: query: queries must not contain constants (found a)" in (
        err.splitlines())
    assert "good" in out
    assert [row[0] for row in csv.reader(io.StringIO(out))] == ["id", "good"]


def test_bench_exits_2_when_a_check_hits_a_limit(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "thm2.rules").write_text((DATA / "thm2.rules").read_text())
    code, out, _ = run(capsys, "bench", str(corpus), "--max-atoms", "5", "--no-timing")
    assert code == 2
    assert list(csv.reader(io.StringIO(out)))[1] == [
        "thm2", "1", "1", "acyclic", "0", "limit-exceeded", "0", "limit-exceeded", "0"]
    # A skipped file is bad input, which outranks the limit.
    (corpus / "bad.rules").write_text("A( .\n")
    assert run(capsys, "bench", str(corpus), "--max-atoms", "5")[0] == 1


def test_bench_on_a_directory_without_rules_files(capsys, tmp_path):
    (tmp_path / "notes.txt").write_text("A(X) -> B(X) .\n")
    code, out, err = run(capsys, "bench", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err == f"no .rules files under {tmp_path}\n"


@pytest.mark.parametrize("target", ["missing-dir/results.csv", "."])
def test_bench_out_that_cannot_be_opened_is_bad_input(capsys, tmp_path, monkeypatch, target):
    """A missing parent directory or a directory path fails before any
    check runs."""
    checked = []
    monkeypatch.setattr("eqchase.cli.check_pipeline", lambda *a, **k: checked.append(a))
    out = tmp_path / target
    code, stdout, err = run(capsys, "bench", str(DATA), "--out", str(out))
    assert code == 1
    assert err.startswith(f"{out}: cannot write (")
    assert "internal error" not in err
    assert stdout == ""
    assert checked == []


def test_missing_file_is_bad_input(capsys):
    code, _, err = run(capsys, "chase", "no-such-file.rules")
    assert code == 1
    assert err.startswith("no-such-file.rules: cannot read (")
    assert "internal error" not in err


def test_directory_path_is_bad_input(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path))
    assert code == 1
    assert err.startswith(f"{tmp_path}: cannot read (")
    assert "internal error" not in err


def test_non_utf8_file_is_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.rules"
    bad.write_bytes(b"A(X) -> B(X) .\nA(\xff) .\n")
    code, _, err = run(capsys, "chase", str(bad))
    assert code == 1
    assert err.startswith(f"{bad}: not valid UTF-8")
    assert "internal error" not in err


def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path):
    bom = tmp_path / "bom.rules"
    bom.write_bytes(b"\xef\xbb\xbfA(X) -> B(X) .\nA(a) .\n")
    code, out, err = run(capsys, "chase", str(bom), "--format", "json", "--no-timing")
    assert (code, err) == (0, "")
    assert json.loads(out)["atom_count"] == 2
    # Positions count from the first character after the mark.
    bom.write_bytes(b"\xef\xbb\xbf(a) .\n")
    code, _, err = run(capsys, "chase", str(bom))
    assert (code, err) == (1, f"{bom}:1:1: expected a predicate name\n")


def test_a_decoding_error_after_a_byte_order_mark_names_its_file_offset(capsys, tmp_path):
    bad = tmp_path / "bad.rules"
    bad.write_bytes(b"\xef\xbb\xbfA(a) .\n\xff")
    code, _, err = run(capsys, "chase", str(bad))
    assert (code, err) == (1, f"{bad}: not valid UTF-8 (byte 10: invalid start byte)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", THM2, "--notion", "bogus"),
        ("chase", THM2, "--max-steps", "abc"),
        ("check", THM2, "--sing-cap", "-1"),
        ("axiomatise", THM2, "--kind", "sing-all", "--sing-cap", "-1"),
        ("check", THM2, "--ci-include-eq"),
        # Each subcommand takes only the flags it reads.
        ("check", THM2, "--max-steps", "5"),
        ("check", THM2, "--seed", "3"),
        # The checks read the rules alone, so `check` takes no extra facts.
        ("check", THM2, "--facts", AA),
        ("bench", THM2, "--max-steps", "5"),
        ("bench", THM2, "--seed", "3"),
        ("bench", THM2, "--format", "csv"),
        ("validate", THM2, "--max-depth", "3"),
        ("validate", THM2, "--max-atoms", "3"),
        ("validate", THM2, "--max-steps", "3"),
        ("validate", THM2, "--timeout-ms", "3"),
        ("validate", THM2, "--seed", "3"),
        ("validate", THM2, "--no-timing"),
        ("axiomatise", THM2, "--kind", "st", "--max-depth", "3"),
        ("axiomatise", THM2, "--kind", "st", "--max-atoms", "3"),
        ("axiomatise", THM2, "--kind", "st", "--max-steps", "3"),
        ("axiomatise", THM2, "--kind", "st", "--timeout-ms", "3"),
        ("axiomatise", THM2, "--kind", "st", "--seed", "3"),
        ("axiomatise", THM2, "--kind", "st", "--no-timing"),
        ("query", THM2, "--no-timing"),
        # `--sing-cap` only where a singularisation count is read.
        ("check", str(DATA / "thm4.rules"), "--notion", "mfa-sing", "--sing-cap", "4"),
        ("axiomatise", THM2, "--kind", "st", "--sing-cap", "3"),
        # A limit is a count.
        ("chase", THM2, "--max-depth", "-1"),
        ("chase", THM2, "--max-atoms", "-1"),
        ("chase", THM2, "--max-steps", "-1"),
        ("chase", THM2, "--timeout-ms", "-5"),
        ("check", THM2, "--max-atoms", "-1"),
        ("query", THM2, "--timeout-ms", "-5"),
    ],
    ids=["unknown-notion", "non-integer", "negative-sing-cap-check",
         "negative-sing-cap-axiomatise", "removed-option",
         "check-max-steps", "check-seed", "check-facts", "bench-max-steps", "bench-seed", "bench-format",
         "validate-max-depth", "validate-max-atoms", "validate-max-steps",
         "validate-timeout-ms", "validate-seed", "validate-no-timing",
         "axiomatise-max-depth", "axiomatise-max-atoms", "axiomatise-max-steps",
         "axiomatise-timeout-ms", "axiomatise-seed", "axiomatise-no-timing",
         "query-no-timing", "check-sing-cap-single-notion", "axiomatise-sing-cap-st",
         "negative-max-depth", "negative-max-atoms", "negative-max-steps",
         "negative-timeout-ms", "negative-max-atoms-check", "negative-timeout-ms-query"],
)
def test_usage_error_is_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err
    assert "internal error" not in err


def test_check_steps_never_negative(capsys):
    # The atom limit stops each saturation while it is still adding the
    # critical instance, before any atom is derived beyond it.
    code, out, _ = run(capsys, "check", THM2, "--max-atoms", "1", "--format", "json", "--no-timing")
    assert code == 2
    reports = json.loads(out)
    assert [r["notion"] for r in reports] == ["emfa", "mfa-st", "mfa-sing"]
    assert all(r["verdict"] == "limit-exceeded" and r["steps"] == 0 for r in reports)


# Ai(X) -> exists Y . Ri(X,Y), Ai+1(Y) for i = 0..13: the EMFA set's
# deepest term has depth 15, past the CLI's default --max-depth 10.
CHAIN14 = "".join(f"A{i}(X) -> exists Y . R{i}(X,Y), A{i + 1}(Y) .\n" for i in range(14))


@pytest.mark.parametrize("flags,limit,counts", [
    ((), "max_term_depth", [(209, 180), (295, 265), (295, 265)]),
    (("--max-atoms", "5"), "max_atoms", [(5, 0)] * 3),
    # The saturation adds the critical instance before its first clock test.
    (("--timeout-ms", "0"), "wall_clock_ms", [(29, 0), (30, 0), (30, 0)]),
])
def test_check_text_names_the_limit(capsys, tmp_path, flags, limit, counts):
    path = tmp_path / "chain14.rules"
    path.write_text(CHAIN14)
    code, out, _ = run(capsys, "check", str(path), "--no-timing", *flags)
    assert code == 2
    assert out.splitlines() == [
        f"{notion}: limit-exceeded ({limit}) [set_size={size}, steps={steps}]"
        for notion, (size, steps) in zip(("emfa", "mfa-st", "mfa-sing"), counts)
    ]
    code, out, _ = run(capsys, "check", str(path), "--format", "json", "--no-timing", *flags)
    assert code == 2
    assert [r["limit"] for r in json.loads(out)] == [limit] * 3


def test_check_chain_is_acyclic_past_the_default_depth(capsys, tmp_path):
    path = tmp_path / "chain14.rules"
    path.write_text(CHAIN14)
    code, out, _ = run(capsys, "check", str(path), "--max-depth", "1000", "--no-timing")
    assert code == 0
    assert out.splitlines() == ["emfa: acyclic [set_size=239, steps=210]",
                                "mfa-st: acyclic [set_size=345, steps=315]",
                                "mfa-sing: acyclic [set_size=345, steps=315]"]


def test_a_stopped_query_names_its_limit_and_step(capsys, tmp_path):
    # `query` ends on the line `chase` ends on when the chase stopped on
    # a limit, and prints no such line when it finished.
    path = tmp_path / "chain14.rules"
    path.write_text(CHAIN14 + "A0(a) .\n? exists X . A14(X) .\n")
    code, out, _ = run(capsys, "chase", str(path))
    assert code == 2
    status = out.splitlines()[-1]
    assert status == "% stopped after 9 steps: max_term_depth exceeded"
    code, out, _ = run(capsys, "query", str(path))
    assert code == 2
    assert out.splitlines() == ["unknown: ? exists X . A14(X) .", status]
    code, out, _ = run(capsys, "query", str(path), "--format", "json")
    assert code == 2
    assert json.loads(out) == [{"query": "? exists X . A14(X) .", "status": "unknown",
                                "limit": "max_term_depth", "steps": 9}]
    program = parse(path.read_text())
    ontology = Ontology(program.rules, program.facts)
    assert entails(ontology, program.queries[0], ChaseLimits(max_term_depth=10)) == \
        Unknown("max_term_depth", 9)
    code, out, _ = run(capsys, "query", str(path), "--max-depth", "15")
    assert code == 0
    witness = "a"
    for name in ["f_Y", *(f"f_Y__{k}" for k in range(2, 15))]:
        witness = f"{name}({witness})"
    assert out.splitlines() == [f"entailed: ? exists X . A14(X) .  [X={witness}]"]


def test_help_exits_zero(capsys):
    # Also after a good call and a usage error in the same process.
    assert run(capsys, "chase", THM2, "--facts", AA)[0] == 0
    assert run(capsys, "check", THM2, "--notion", "bogus")[0] == 1
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--sing-cap" in capsys.readouterr().out


def test_appended_flags_do_not_carry_over(capsys):
    code, out, _ = run(capsys, "query", THM2, "--facts", AA,
                       "--query", "? exists X . A(X) .", "--query", "? exists X . B(X) .")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == ["entailed", "entailed"]
    code, out, _ = run(capsys, "query", THM2, "--query", "? exists X . A(X) .")
    assert code == 0
    assert out.splitlines() == ["not-entailed: ? exists X . A(X) ."]
    code, _, err = run(capsys, "query", THM2)
    assert code == 1
    assert "no queries" in err
    code, out, _ = run(capsys, "chase", THM2)
    assert (code, out) == (0, "% terminated after 0 steps\n")


def test_a_usage_error_leaves_the_next_call_unchanged(capsys):
    argv = ("chase", THM2, "--facts", AA, "--format", "json", "--no-timing")
    first = run(capsys, *argv)
    assert first[0] == 0
    # Fails after `--facts` was appended.
    code, out, _ = run(capsys, "chase", THM2, "--facts", AA, "--max-steps", "abc")
    assert (code, out) == (1, "")
    assert run(capsys, *argv) == first


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(10):
        assert run(capsys, "chase", THM2, "--facts", AA)[0] == 0
        assert run(capsys, "check", THM2, "--notion", "bogus")[0] == 1
    assert built == []


_BAD_RULE = "rule 1: head variable 'Y' does not occur in the body"
_BAD_FACT = "fact 1 (Unknown(a)): predicate 'Unknown' does not occur in the rule set"
_BAD_QUERY = ["query: queries must not contain constants (found a)",
              "query: variable 'Y' is not quantified"]


@pytest.mark.parametrize("command", ["chase", "query"])
@pytest.mark.parametrize("text, want", [
    ("A(X) -> B(Y) .\nA(X) -> exists W . R(X,W) .\nA(a) .\n", [_BAD_RULE]),
    ("A(X) -> B(X) .\nA(a) .\n? exists X . A(X), B(a) .\n? exists X . C(X,Y) .\n",
     _BAD_QUERY),
    ("A(X) -> B(Y) .\nA(a) .\n? exists X . A(X), B(a) .\n? exists X . C(X,Y) .\n",
     [_BAD_RULE] + _BAD_QUERY),
    ("A(X) -> B(Y) .\nUnknown(a) .\n", [_BAD_RULE, _BAD_FACT]),
], ids=["rule", "query", "both", "no-queries"])
def test_violations_reported_ontology_first(capsys, tmp_path, command, text, want):
    # Without queries, `query` still reports the ontology's violations,
    # not the missing queries.
    path = tmp_path / "bad.rules"
    path.write_text(text)
    assert run(capsys, command, str(path)) == (1, "", "\n".join(want) + "\n")


def test_inline_query_violations_come_last(capsys, tmp_path):
    path = tmp_path / "bad.rules"
    path.write_text("A(X) -> B(Y) .\nUnknown(a) .\n")
    got = run(capsys, "query", str(path), "--query", "? exists X . Q(X,a) .")
    assert got == (1, "", "\n".join([_BAD_RULE, _BAD_FACT, _BAD_QUERY[0]]) + "\n")


def test_chase_and_query_validate_the_ontology_once(capsys, monkeypatch):
    calls = []
    for name in ("eqchase.cli", "eqchase.chase"):
        module = sys.modules[name]

        def counted(ontology, validate=module.validate):
            calls.append(ontology)
            return validate(ontology)

        monkeypatch.setattr(module, "validate", counted)
    assert run(capsys, "chase", THM2, "--facts", AA)[0] == 0
    assert run(capsys, "query", THM2, "--facts", AA, "--query", "? exists X . A(X) .")[0] == 0
    assert len(calls) == 2
