"""The CI workflow installs the package and runs the tier-1 suite, the
demos and the installed console script, and nothing else: a check of the
package is a test, which the tier-1 command runs.  A plain text scan of
the workflow, since PyYAML is not a test dependency."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
CONSOLE_SCRIPT_STEP = "The installed geig console script"


def steps(text: str) -> dict:
    """The ``name`` (or ``uses``) of each step -> the step's text."""
    chunks = re.split(r"\n(?=\s*- (?:name|uses): )", text)[1:]
    return {re.match(r"\s*- (?:name|uses): (.*)", chunk).group(1): chunk for chunk in chunks}


def test_the_workflow_keeps_only_the_steps_a_test_cannot_be():
    text = WORKFLOW.read_text()
    assert len(text.splitlines()) < 80
    assert list(steps(text)) == [
        "actions/checkout@v4",
        "actions/setup-python@v5",
        "Install the package with its test extras",
        "Tier-1 tests",
        "Demos (the public API they import keeps working)",
        CONSOLE_SCRIPT_STEP,
    ]


def test_no_inline_python():
    assert "<<" not in WORKFLOW.read_text(), "a check of the package is a test, not a heredoc"


def test_only_the_console_script_step_runs_geig():
    found = steps(WORKFLOW.read_text())
    assert re.search(r"\bgeig (vqge|fqge|reference|decompose)\b", found[CONSOLE_SCRIPT_STEP])
    for name, body in found.items():
        if name != CONSOLE_SCRIPT_STEP:
            assert not re.search(r"\bgeig (vqge|fqge|reference|decompose)\b", body), name

