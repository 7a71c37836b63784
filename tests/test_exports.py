"""The package's exported surface: every name in `__all__` resolves, and
each on first use only."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import diffgal


def test_all_names_resolve_once():
    assert [name for name in diffgal.__all__ if not hasattr(diffgal, name)] == []
    assert len(diffgal.__all__) == len(set(diffgal.__all__))
    namespace: dict = {}
    exec("from diffgal import *", namespace)
    assert set(diffgal.__all__) <= namespace.keys()


def test_cli_import_leaves_the_pipeline_and_dataclasses_unloaded():
    """A command imports only what it runs; `-S` keeps `site`'s own imports out."""
    check = textwrap.dedent("""
        import sys
        import diffgal.cli
        assert "diffgal.inverse" not in sys.modules, "inverse"
        assert "dataclasses" not in sys.modules, "dataclasses"
        assert "diffgal.integrab" in sys.modules, "integrab"
        import diffgal
        assert diffgal.run_pipeline is sys.modules["diffgal.inverse"].run_pipeline
        try:
            diffgal.nope
        except AttributeError as exc:
            assert "nope" in str(exc)
        else:
            raise AssertionError("diffgal.nope resolved")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", check], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
