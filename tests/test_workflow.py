"""The CI workflow cannot run here, so its ties to the repository are
checked offline: the paths it names exist, its lowest Python is the
floor that pyproject.toml declares, and it installs what perfbench
imports."""

import ast
import re
import sys
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


def _requirement_names(requirements) -> set:
    """The distribution names of requirement strings such as "numpy>=2.0"."""
    return {re.match(r"[A-Za-z0-9_.-]*", req).group(0).lower() for req in requirements}


def test_every_module_perfbench_imports_is_installed():
    # the self-tests start workers that import what every perfbench script does
    scripts = sorted((ROOT / "perfbench").rglob("*.py"))
    imported = set()
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {path.stem for path in scripts} | {"nonharmonic"}
    third_party = imported - local - set(sys.stdlib_module_names)
    assert {"numpy", "scipy"} <= third_party
    install = re.search(r"pip install (.*)", WORKFLOW).group(1).replace('"', "").split()
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    dependencies = re.search(r"^dependencies\s*=\s*\[(.*?)\]", pyproject, re.M | re.S).group(1)
    extras = re.search(r"^\[project\.optional-dependencies\]\n(.*?)^\[", pyproject,
                       re.M | re.S).group(1)
    installed = (_requirement_names(t for t in install if not t.startswith((".", "-")))
                 | _requirement_names(re.findall(r'"([^"]+)"', dependencies + extras)))
    assert sorted(third_party - installed) == []
