"""The suite's own pytest configuration, run on a throwaway test file: a
falsified property test is reported as one failure with its falsifying
example, and the tests after it still run."""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_falsified_property_test_is_reported_and_the_suite_goes_on(pytester):
    (pytester.path / "pyproject.toml").write_text(PYPROJECT.read_text())
    pytester.makepyfile(test_falsified="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(n):
            assert n < 10

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_falsified.py")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
