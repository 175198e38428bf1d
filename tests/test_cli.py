"""Tests for the cad-detect command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graphs import (
    DynamicGraph,
    GraphSnapshot,
    community_pair_graph,
    perturb_weights,
    write_temporal_edge_csv,
)
from repro.pipeline.api import DETECTOR_FACTORIES


@pytest.fixture
def graph_file(tmp_path):
    base = community_pair_graph(community_size=10, p_in=0.6, seed=0)
    drifted = perturb_weights(base, 0.02, seed=1)
    matrix = drifted.adjacency.tolil()
    matrix[0, 19] = matrix[19, 0] = 3.0
    graph = DynamicGraph([
        base.with_time("jan"),
        GraphSnapshot(matrix.tocsr(), base.universe, "feb"),
    ])
    path = tmp_path / "graph.csv"
    write_temporal_edge_csv(graph, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect", "g.csv"])
        assert args.detector == "cad"
        assert args.anomalies_per_transition == 5

    def test_method_choices_are_the_registered_methods(self, capsys):
        parser = build_parser()
        for name in sorted(DETECTOR_FACTORIES):
            args = parser.parse_args(["detect", "g.csv", "--method", name])
            assert args.detector == name
        with pytest.raises(SystemExit):
            parser.parse_args(["detect", "g.csv", "--method", "nope"])
        error = capsys.readouterr().err
        assert "invalid choice: 'nope'" in error
        assert ", ".join(map(repr, sorted(DETECTOR_FACTORIES))) in error


class TestInfo:
    def test_prints_summary(self, graph_file, capsys):
        assert main(["info", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "nodes: 20" in out
        assert "jan" in out and "feb" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err


class TestDetectCommand:
    def test_cad(self, graph_file, capsys):
        assert main(["detect", str(graph_file), "-l", "2",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "detector=CAD" in out
        assert "jan->feb" in out

    def test_other_detector(self, graph_file, capsys):
        assert main(["detect", str(graph_file), "--detector", "adj",
                     "-l", "2"]) == 0
        assert "detector=ADJ" in capsys.readouterr().out

    def test_explicit_delta(self, graph_file, capsys):
        assert main(["detect", str(graph_file), "--delta", "1e-9"]) == 0
        assert "threshold=1e-09" in capsys.readouterr().out


class TestScoreCommand:
    def test_prints_tables(self, graph_file, capsys):
        assert main(["score", str(graph_file), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "delta_e" in out
        assert "delta_n" in out

    def test_bad_transition_index(self, graph_file, capsys):
        assert main(["score", str(graph_file), "--transition", "9"]) == 1
        assert "transition" in capsys.readouterr().err
