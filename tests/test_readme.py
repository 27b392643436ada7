"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[Atom(A(a)), Atom(B(f_W(a))), Atom(R(a,f_W(a)))]"
    assert lines[1].startswith("Entailed(")
    assert lines[2:] == ["emfa acyclic", "mfa-st cyclic", "mfa-sing acyclic"]
