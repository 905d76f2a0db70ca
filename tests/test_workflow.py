"""The CI workflow cannot run here, so its ties to the repository are
checked offline: the paths it names exist, and its lowest Python is the
floor that pyproject.toml declares."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")

# a relative path-like token: not a `uses:` action, not part of $VAR/..., a URL or a longer path
_PATH = re.compile(r"(?<![\w$@/.{-])([A-Za-z_][\w.-]*/[\w./*-]*)")


def workflow_paths() -> set:
    return {token for line in WORKFLOW.splitlines() if not line.strip().startswith("- uses:")
            for token in _PATH.findall(line)}


def test_every_path_the_workflow_names_exists():
    paths = workflow_paths()
    assert {"configs/*.json", "perfbench/csv_digests.json",
            "perfbench/tests/selftest_perfbench.py"} <= paths
    missing = sorted(p for p in paths if not any(ROOT.glob(p.rstrip("/") or ".")))
    assert missing == []


def test_lowest_workflow_python_is_the_requires_python_floor():
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", WORKFLOW).group(1)
    versions = [tuple(map(int, v)) for v in re.findall(r'"(\d+)\.(\d+)"', matrix)]
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject, re.M)
    assert versions and min(versions) == tuple(map(int, floor.groups()))
