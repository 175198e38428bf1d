"""repro — a reproduction of *Localizing anomalous changes in
time-evolving graphs* (Sricharan & Das, SIGMOD 2014).

The package implements **CAD** (Commute-time based Anomaly Detection in
dynamic graphs) together with every substrate it relies on — a
temporal-graph model, Laplacian solvers, an approximate commute-time
embedding, the paper's baseline detectors, its dataset simulators and
its evaluation harness.

``import repro`` loads none of them: each public name, and each
subpackage, is imported on first access (PEP 562), so a caller pays
only for the layers it uses.

Quick start::

    import repro

    toy = repro.toy_example()
    detector = repro.CadDetector(method="exact")
    report = detector.detect(toy.graph, anomalies_per_transition=6)
    print(report.summary())
"""

from __future__ import annotations

from importlib import import_module

__version__ = "1.0.0"

#: Where each public name is defined, by subpackage.
_EXPORTS = {
    "baselines": (
        "ActDetector", "AdjDetector", "AfmDetector", "ClcDetector",
        "ComDetector",
    ),
    "core": (
        "CadDetector", "CommuteTimeCalculator", "DetectionReport",
        "Detector", "EventScoreDetector", "GenericDistanceDetector",
        "OnlineThresholdSelector", "StreamingCadDetector",
        "TransitionResult", "TransitionScores", "explain_node",
        "explain_transition", "select_global_threshold",
    ),
    "detectors": (
        "FusionDetector", "InvariantDetector", "LadDetector",
        "StreamingDetector", "create_detector", "graph_invariants",
        "invariant_matrix", "laplacian_signature", "list_methods",
        "method_names", "scan_statistics",
    ),
    "datasets": (
        "DblpLikeSimulator", "EnronLikeSimulator", "PrecipitationSimulator",
        "generate_dblp_instance", "generate_gaussian_mixture_instance",
        "generate_scalability_instance", "toy_example",
    ),
    "exceptions": (
        "CheckpointError", "DatasetError", "DetectionError",
        "EmbeddingError", "EvaluationError", "GraphConstructionError",
        "ParallelExecutionError", "ReproError", "SanitizationError",
        "SolverError", "ThresholdError",
    ),
    "graphs": (
        "DynamicGraph", "GraphSnapshot", "NodeUniverse",
        "SanitizationReport", "gaussian_similarity_graph", "knn_graph",
        "sanitize_adjacency", "sanitize_snapshot", "snapshot_from_edges",
    ),
    "linalg": (
        "CommuteTimeEmbedding", "LaplacianSolver", "commute_time_matrix",
        "laplacian", "laplacian_pseudoinverse", "sparsify",
    ),
    "parallel": ("ParallelCadDetector",),
    "pipeline": ("detect", "detect_windowed", "make_detector"),
    "resilience": (
        "FallbackPolicy", "FallbackSolver", "FaultInjector", "HealthReport",
        "read_checkpoint", "write_checkpoint",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

#: The package's modules, reachable as attributes (``repro.graphs``).
_SUBMODULES = frozenset({
    "baselines", "cluster", "core", "datasets", "detectors", "evaluation",
    "exceptions", "graphs", "linalg", "observability", "parallel",
    "pipeline", "resilience", "service", "store",
})

__all__ = [
    "ActDetector",
    "AdjDetector",
    "AfmDetector",
    "CadDetector",
    "CheckpointError",
    "ClcDetector",
    "ComDetector",
    "CommuteTimeCalculator",
    "CommuteTimeEmbedding",
    "DatasetError",
    "DblpLikeSimulator",
    "DetectionError",
    "DetectionReport",
    "Detector",
    "DynamicGraph",
    "EmbeddingError",
    "EnronLikeSimulator",
    "EvaluationError",
    "EventScoreDetector",
    "FallbackPolicy",
    "FallbackSolver",
    "FaultInjector",
    "FusionDetector",
    "GenericDistanceDetector",
    "GraphConstructionError",
    "GraphSnapshot",
    "HealthReport",
    "InvariantDetector",
    "LadDetector",
    "LaplacianSolver",
    "NodeUniverse",
    "OnlineThresholdSelector",
    "ParallelCadDetector",
    "ParallelExecutionError",
    "PrecipitationSimulator",
    "ReproError",
    "SanitizationError",
    "SanitizationReport",
    "SolverError",
    "StreamingCadDetector",
    "StreamingDetector",
    "ThresholdError",
    "TransitionResult",
    "TransitionScores",
    "commute_time_matrix",
    "create_detector",
    "detect",
    "detect_windowed",
    "explain_node",
    "explain_transition",
    "graph_invariants",
    "invariant_matrix",
    "laplacian_signature",
    "list_methods",
    "method_names",
    "scan_statistics",
    "sparsify",
    "gaussian_similarity_graph",
    "generate_dblp_instance",
    "generate_gaussian_mixture_instance",
    "generate_scalability_instance",
    "knn_graph",
    "laplacian",
    "laplacian_pseudoinverse",
    "make_detector",
    "read_checkpoint",
    "sanitize_adjacency",
    "sanitize_snapshot",
    "select_global_threshold",
    "snapshot_from_edges",
    "toy_example",
    "write_checkpoint",
    "__version__",
]


def __getattr__(name: str):
    """Import what ``name`` refers to on first access, then bind it."""
    if name in _ORIGIN:
        value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
