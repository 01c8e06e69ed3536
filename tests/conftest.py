"""Suite-wide set-up: subprocess tests run `python -m freqscope.cli`, so they
get the same `src/` on PYTHONPATH that `pythonpath` in pyproject.toml gives
the in-process tests; a bare `python -m pytest` then needs no install."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
