"""What importing the package loads, each check in a fresh interpreter.

``import repro`` resolves its public names and subpackages on first
access, and third-party modules that only some functions use are
imported inside them, so building a CAD detector or importing the CLI
loads none of the tiers and scipy modules it does not use.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: Never loaded by ``import repro; repro.CadDetector(seed=1)``.
DETECTOR_BUDGET = (
    "scipy.spatial", "scipy.special", "scipy.linalg",
    "scipy.sparse.linalg", "scipy.sparse.csgraph",
    "multiprocessing", "http.server",
    "repro.service", "repro.cluster", "repro.parallel", "repro.pipeline",
    "repro.baselines", "repro.datasets", "repro.detectors",
    "repro.evaluation",
)

#: Never loaded by ``import repro.cli``.
CLI_BUDGET = (
    "repro.service", "repro.cluster", "repro.parallel", "repro.pipeline",
    "repro.detectors", "repro.baselines", "repro.datasets",
)


def _fresh(script: str) -> str:
    """Run ``script`` in a new interpreter; returns its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def _loaded(statement: str, budget: tuple[str, ...]) -> list[str]:
    """Modules of ``budget`` in ``sys.modules`` after ``statement``."""
    return json.loads(_fresh(f"""
        import json, sys
        {statement}
        print(json.dumps([m for m in {budget!r} if m in sys.modules]))
    """))


def test_detector_construction_budget():
    assert _loaded("import repro; repro.CadDetector(seed=1)",
                   DETECTOR_BUDGET) == []


def test_cli_import_budget():
    assert _loaded("import repro.cli", CLI_BUDGET) == []


def test_cluster_worker_parse_skips_the_method_registry():
    statement = ("from repro.cli import build_parser; "
                 "build_parser().parse_args(['cluster-worker', 'h', '1'])")
    assert _loaded(statement, ("repro.pipeline", "repro.detectors")) == []


def test_public_names_are_their_defining_modules_objects():
    _fresh("""
        import importlib
        import repro

        for name in repro.__all__:
            if name == "__version__":
                continue
            value = getattr(repro, name)
            defining = importlib.import_module(value.__module__)
            assert getattr(defining, name) is value, name
            package = importlib.import_module(
                ".".join(value.__module__.split(".")[:2]))
            assert getattr(package, name) is value, name
    """)


def test_dir_lists_every_public_name():
    _fresh("""
        import repro

        missing = set(repro.__all__) - set(dir(repro))
        assert not missing, sorted(missing)
    """)


def test_star_import_binds_every_public_name():
    _fresh("""
        import repro

        namespace = {}
        exec("from repro import *", namespace)
        missing = set(repro.__all__) - set(namespace)
        assert not missing, sorted(missing)
        assert namespace["__version__"] == repro.__version__
    """)


def test_subpackages_resolve_after_bare_import():
    _fresh("""
        import repro

        assert repro.graphs.snapshot.GraphSnapshot is repro.GraphSnapshot
        assert repro.exceptions.ReproError is repro.ReproError
        try:
            repro.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown name resolved")
    """)


def test_subpackage_functions_shadow_their_modules():
    _fresh("""
        import inspect
        import repro

        assert inspect.isfunction(repro.linalg.sparsify)
        assert inspect.isfunction(repro.linalg.laplacian)
        assert repro.linalg.laplacian is repro.laplacian
    """)
