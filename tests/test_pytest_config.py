"""The project's pytest settings report a failing test as a failure."""

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


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
