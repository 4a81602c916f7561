"""Stands in for scipy when this directory leads PYTHONPATH: importing it fails as
if scipy were not installed, so tier-1 runs as on a machine with numpy and pytest
only, and every test that needs scipy skips through pytest.importorskip."""

raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
