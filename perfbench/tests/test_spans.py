import sys
import threading
import types

import pytest

from spans import Span, Tracer, covered_length, self_times


def span(id, start, end, parent=None, name="x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent,
                op="op")


def test_self_time_subtracts_children():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 3.0, 1), span(3, 5.0, 6.0, 1)]
    assert self_times(spans)[1] == pytest.approx(7.0)
    assert self_times(spans)[2] == pytest.approx(2.0)


def test_self_time_counts_nested_grandchildren_once():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 5.0, 1),
             span(3, 2.0, 4.0, 2)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(2.0)


def test_self_time_with_overlapping_children():
    # Two children on different threads overlap on [3, 4].
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 4.0, 1),
             span(3, 3.0, 6.0, 1)]
    assert self_times(spans)[1] == pytest.approx(5.0)


def test_children_are_clipped_to_the_parent():
    spans = [span(1, 0.0, 4.0), span(2, 3.0, 8.0, 1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_covered_length():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3), (2.5, 4), (1, 1)]) == 3.0


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_nests_and_tags_operations():
    tracer = Tracer(clock=Clock())
    with tracer.span("detect", op="detect-1", root=True):
        with tracer.span("core.score"):
            with tracer.span("linalg.pinv"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["core.score"].parent == by_name["detect"].id
    assert by_name["linalg.pinv"].parent == by_name["core.score"].id
    assert {s.op for s in tracer.spans} == {"detect-1"}


def test_spans_on_helper_threads_belong_to_the_open_root():
    tracer = Tracer()
    def helper():
        with tracer.span("cluster.decode"):
            pass

    with tracer.span("detect", op="detect-7", root=True) as root:
        worker = threading.Thread(target=helper)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    decode = next(s for s in tracer.spans if s.name == "cluster.decode")
    assert decode.parent == root.id
    assert decode.op == "detect-7"


class Target:
    def work(self, value):
        return value * 2


def test_install_wraps_and_restores_attributes():
    module = types.ModuleType("fake_layer")
    module.solve = lambda x: x + 1
    module.Target = Target
    sys.modules["fake_layer"] = module
    try:
        original = module.solve
        tracer = Tracer()
        undo = tracer.install([
            ("fake_layer", "solve", "linalg.solve",
             lambda args, kwargs, result: result),
            ("fake_layer.Target", "work", "core.work"),
        ])
        assert module.solve(1) == 2
        assert Target().work(3) == 6
        undo()
        assert module.solve is original
        assert "work" in vars(Target)
        assert [s.name for s in tracer.spans] == ["linalg.solve",
                                                  "core.work"]
        assert tracer.spans[0].count == 2.0
    finally:
        del sys.modules["fake_layer"]


def test_install_on_an_inherited_method_restores_inheritance():
    class Child(Target):
        pass

    module = types.ModuleType("fake_child")
    module.Child = Child
    sys.modules["fake_child"] = module
    try:
        undo = Tracer().install([("fake_child.Child", "work", "w")])
        assert "work" in vars(Child)
        undo()
        assert "work" not in vars(Child)
        assert Child().work(2) == 4
    finally:
        del sys.modules["fake_child"]
