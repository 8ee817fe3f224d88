"""The project's test settings: pytest reports a failing test as a failure,
the numpy-only CI job runs every test module that needs no scipy and no
other, and no source module imports a name it never uses or opens a text
file in the locale's encoding."""

import ast
import re
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_failing_hypothesis_test_gives_a_failure_report(pytester):
    # on a failure hypothesis's plugin imports libcst, whose deprecation
    # warning the "error" filter would turn into an INTERNALERROR
    pytester.makepyfile(
        test_fails="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0
        """
    )
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        "test_fails.py",
    )
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.assert_outcomes(failed=1)


def _numpy_only_test_modules() -> list[str]:
    """The test modules that the numpy-only CI job's pytest step names.

    Read as text: that job installs no YAML parser, and runs this module.
    """
    job = WORKFLOW.read_text().split("\n  numpy-only-runtime:\n", 1)[1]
    steps = [step for step in job.split("\n      - ") if "-m pytest" in step]
    assert len(steps) == 1, steps
    return re.findall(r"tests/\w+\.py", steps[0])


def _imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in the file at ``path``."""
    packages = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_numpy_only_job_runs_test_modules_that_import_no_scipy():
    # a scipy or mpmath oracle in a listed module would fail that job only,
    # and a scipy-free module left off the list would go unrun there
    assert not _imported_packages(ROOT / "tests" / "conftest.py") & {"scipy", "mpmath"}
    scipy_free = {f"tests/{path.name}" for path in (ROOT / "tests").glob("test_*.py")
                  if not _imported_packages(path) & {"scipy", "mpmath"}}
    assert scipy_free
    assert sorted(_numpy_only_test_modules()) == sorted(scipy_free)


# perfbench's tracer looks these up on curdur.cli, which calls them only
# through pipeline.fit; the harness changes only with the benchmark itself
IMPORTED_FOR_THE_BENCHMARK = {"cli.py": {"build_basis", "sample", "summarize"}}


def _unused_imports(path: Path) -> set[str]:
    """The names the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_source_modules_use_every_name_they_import():
    # __init__.py imports to re-export
    modules = [path for path in (ROOT / "src" / "curdur").glob("*.py")
               if path.name != "__init__.py"]
    assert modules
    for path in modules:
        unused = _unused_imports(path) - IMPORTED_FOR_THE_BENCHMARK.get(path.name, set())
        assert not unused, (path.name, sorted(unused))


# the calls that open a text file, with the positions of their mode and
# encoding arguments; any other ``x.open`` is taken for ``Path.open``
_TEXT_OPENS = {"open": (1, 3), "io.open": (1, 3), ".open": (0, 2),
               ".read_text": (None, 0), ".write_text": (None, 1)}


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else ""
        return f"{owner}.{func.attr}" if owner in ("io", "os") else f".{func.attr}"
    return func.id if isinstance(func, ast.Name) else ""


def _opens_without_encoding(path: Path) -> list[int]:
    """The lines of the calls in the module at ``path`` that open a text
    file with no encoding, and so in the locale's."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not (isinstance(node, ast.Call) and _call_name(node.func) in _TEXT_OPENS):
            continue
        mode_at, encoding_at = _TEXT_OPENS[_call_name(node.func)]
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        mode = keywords.get("mode")
        if mode_at is not None and len(node.args) > mode_at:
            mode = node.args[mode_at]
        binary = isinstance(mode, ast.Constant) and "b" in mode.value
        if not binary and "encoding" not in keywords and len(node.args) <= encoding_at:
            lines.append(node.lineno)
    return lines


def test_source_modules_open_text_files_with_an_encoding():
    # both readers read UTF-8: a writer in the locale's encoding could
    # write a file they refuse, or fail on a name the locale cannot encode
    modules = list((ROOT / "src" / "curdur").glob("*.py"))
    assert modules
    for path in modules:
        lines = _opens_without_encoding(path)
        assert not lines, (path.name, lines)
