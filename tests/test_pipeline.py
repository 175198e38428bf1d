"""Unit tests for the pipeline API and report rendering."""

import pytest

from repro.core import CadDetector
from repro.baselines import ClcDetector
from repro.exceptions import DetectionError
from repro.pipeline import (
    DETECTOR_FACTORIES,
    detect,
    make_detector,
    render_bar_chart,
    render_series,
    render_table,
)


class TestMakeDetector:
    def test_all_registered_names(self):
        for name in DETECTOR_FACTORIES:
            detector = make_detector(name)
            assert detector.name.lower() == name

    def test_case_insensitive(self):
        assert make_detector("CAD").name == "CAD"

    def test_kwargs_forwarded(self):
        detector = make_detector("act", window=5)
        assert detector.window == 5

    def test_unknown_name(self):
        with pytest.raises(DetectionError):
            make_detector("oracle")


class TestDetect:
    def test_cad_by_name(self, small_dynamic_graph):
        report = detect(small_dynamic_graph, detector="cad",
                        anomalies_per_transition=2, method="exact")
        assert report.detector == "CAD"
        assert report.transitions[0].is_anomalous

    def test_detector_instance(self, small_dynamic_graph):
        report = detect(small_dynamic_graph,
                        detector=CadDetector(method="exact"),
                        anomalies_per_transition=2)
        assert report.detector == "CAD"

    def test_instance_with_kwargs_rejected(self, small_dynamic_graph):
        with pytest.raises(DetectionError):
            detect(small_dynamic_graph, detector=CadDetector(),
                   method="exact")

    def test_act_routing(self, small_dynamic_graph):
        report = detect(small_dynamic_graph, detector="act",
                        anomalies_per_transition=3)
        assert report.detector == "ACT"

    def test_node_only_policy(self, small_dynamic_graph):
        report = detect(small_dynamic_graph,
                        detector=ClcDetector(),
                        anomalies_per_transition=2)
        assert report.detector == "CLC"
        # single transition: peak equals the median, nothing flagged or
        # everything — either way the report is well-formed
        assert len(report.transitions) == 1

    def test_adj_thresholded_like_cad(self, small_dynamic_graph):
        report = detect(small_dynamic_graph, detector="adj",
                        anomalies_per_transition=2)
        assert report.detector == "ADJ"
        assert report.threshold > 0

    def test_explicit_delta(self, small_dynamic_graph):
        report = detect(small_dynamic_graph, detector="cad",
                        delta=1e-9, method="exact")
        assert report.threshold == 1e-9


class TestRenderTable:
    def test_alignment_and_header(self):
        text = render_table(
            ("name", "value"),
            [("alpha", 1.0), ("b", 22.5)],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert len(lines) == 5

    def test_float_formatting(self):
        text = render_table(("x",), [(0.123456789,)],
                            float_format="{:.2f}")
        assert "0.12" in text

    def test_empty_rows(self):
        text = render_table(("a", "b"), [])
        assert "a" in text


class TestRenderSeries:
    def test_one_line_per_point(self):
        text = render_series("auc", [1, 2], [0.5, 0.6])
        assert text.count("\n") == 2
        assert "0.5" in text


class TestRenderBarChart:
    def test_bars_scale(self):
        text = render_bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 2 * lines[0].count("#")

    def test_zero_values(self):
        text = render_bar_chart(["a"], [0.0])
        assert "#" not in text

    def test_title(self):
        text = render_bar_chart(["a"], [1.0], title="counts")
        assert text.splitlines()[0] == "counts"
