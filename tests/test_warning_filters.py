"""The suite's warning filters leave Hypothesis able to report a failure."""

from __future__ import annotations

import importlib
import sys

import pytest


def test_hypothesis_failure_reporter_imports_under_the_suite_filters(monkeypatch):
    """``DeprecationWarning`` is an error, except the one libcst raises.

    Hypothesis imports ``hypothesis.extra._patching`` (and with it libcst)
    only while reporting a falsifying example; if that import raised, pytest
    would end in INTERNALERROR instead of printing the example.  libcst is an
    optional Hypothesis dependency: without it Hypothesis skips the import
    and there is nothing to guard.  The modules are dropped first so the
    import really runs under this test's filters.
    """
    pytest.importorskip("libcst")
    for name in list(sys.modules):
        if name == "hypothesis.extra._patching" or name.split(".")[0] == "libcst":
            monkeypatch.delitem(sys.modules, name)
    importlib.import_module("hypothesis.extra._patching")
