"""The CI workflow's inline Python scripts compile, and every lagsob name they
import or read as `lagsob.X` exists.  They run only in CI, so a renamed or
removed public name would otherwise show only there.  Nothing here runs a
script, so a changed signature or a missing attribute of a returned object is
not caught: this is a name-existence and compile check only."""

import ast
import importlib
import textwrap
from pathlib import Path

import pytest

import lagsob

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


def lagsob_names(tree):
    """(module, name) for each `from lagsob... import name` and each `lagsob.name` read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "lagsob":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "lagsob")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "lagsob":
            yield "lagsob", node.attr


def test_the_workflow_has_nine_inline_scripts():
    assert len(SCRIPTS) == 9


@pytest.mark.parametrize("index", range(len(SCRIPTS)))
def test_inline_script_compiles_and_its_lagsob_names_exist(index):
    source = SCRIPTS[index]
    compile(source, f"tests.yml script {index}", "exec")
    for module, name in lagsob_names(ast.parse(source)):
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"script {index}: {module} has no {name!r}"


def test_a_missing_name_is_reported():
    tree = ast.parse("import lagsob\nfrom lagsob.cli import main\nlagsob.solve\nlagsob.no_such_name\n")
    found = list(lagsob_names(tree))
    assert found == [("lagsob", None), ("lagsob.cli", "main"), ("lagsob", "solve"), ("lagsob", "no_such_name")]
    assert not hasattr(lagsob, "no_such_name")
