"""Stands in for hypothesis when this directory leads PYTHONPATH: importing it fails as
if hypothesis were not installed, so tier-1 runs as on a machine with numpy and pytest
only, and every test that needs hypothesis skips through pytest.importorskip."""

raise ModuleNotFoundError("No module named 'hypothesis'", name="hypothesis")
