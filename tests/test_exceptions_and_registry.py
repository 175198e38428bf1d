"""Error-hierarchy contract and detector-registry completeness."""

import pytest

import repro
from repro import exceptions
from repro.pipeline import DETECTOR_FACTORIES, detect, make_detector


class TestErrorHierarchy:
    @pytest.mark.parametrize("name", [
        "GraphConstructionError", "NodeUniverseMismatchError",
        "SolverError", "ConvergenceError", "EmbeddingError",
        "DetectionError", "ThresholdError", "DatasetError",
        "EvaluationError",
    ])
    def test_all_catchable_as_repro_error(self, name):
        error_type = getattr(exceptions, name)
        assert issubclass(error_type, exceptions.ReproError)

    def test_convergence_is_solver_error(self):
        assert issubclass(exceptions.ConvergenceError,
                          exceptions.SolverError)

    def test_mismatch_is_construction_error(self):
        assert issubclass(exceptions.NodeUniverseMismatchError,
                          exceptions.GraphConstructionError)

    def test_library_failure_caught_by_base(self):
        with pytest.raises(repro.ReproError):
            repro.NodeUniverse([])


class TestRegistryCompleteness:
    def test_every_paper_method_registered(self):
        assert {"cad", "act", "adj", "com", "clc"} <= set(
            DETECTOR_FACTORIES
        )

    @pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
    def test_all_detectors_run_end_to_end(self, name,
                                          small_dynamic_graph):
        report = detect(small_dynamic_graph, detector=name,
                        anomalies_per_transition=2)
        assert report.detector == make_detector(name).name
        assert len(report.transitions) == 1

    def test_public_api_surface(self):
        """The documented top-level names resolve."""
        for name in ("CadDetector", "StreamingCadDetector",
                     "GenericDistanceDetector", "detect",
                     "toy_example", "explain_node", "sparsify"):
            assert hasattr(repro, name), name
        assert repro.__version__
