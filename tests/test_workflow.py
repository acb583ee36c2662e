"""The CI workflow's one inline Python script, bench-smoke's record printer,
compiles and names nothing from lagsob.  It runs only in CI, so a syntax error
would otherwise show only there.  The workflow's other jobs run the tier-1
tests, or the installed console script and the demos, and no inline script.
Each console-script line parses here too, so a misspelt option fails tier-1."""

import shlex
import textwrap
from pathlib import Path

from lagsob.cli import build_parser

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def inline_scripts(text):
    """The body of each `python - <<'EOF'` heredoc, dedented, in file order."""
    scripts, body = [], None
    for line in text.splitlines():
        if body is None:
            if line.strip() == "python - <<'EOF'":
                body = []
        elif line.strip() == "EOF":
            scripts.append(textwrap.dedent("\n".join(body)) + "\n")
            body = None
        else:
            body.append(line)
    assert body is None, "unterminated heredoc"
    return scripts


SCRIPTS = inline_scripts(WORKFLOW.read_text())


def test_the_workflow_has_one_inline_script():
    assert len(SCRIPTS) == 1


def test_the_inline_script_compiles_and_names_nothing_from_lagsob():
    compile(SCRIPTS[0], "tests.yml script 0", "exec")
    assert "lagsob" not in SCRIPTS[0]


def test_every_console_script_line_parses():
    lines = [line.strip() for line in WORKFLOW.read_text().splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("lagsob ")]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)
