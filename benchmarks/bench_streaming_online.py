"""Extension bench: the paper's online mode (Section 4.2 remark).

Runs :class:`~repro.core.StreamingCadDetector` over the Enron-like
timeline one snapshot at a time, compares the anomalies flagged *at
arrival time* (with the online δ known so far) against the offline
global-δ result, and times the first scored push against the last one,
which re-selects δ over the whole 47-transition history.
"""

import time

import pytest

from repro.core import CadDetector, StreamingCadDetector
from repro.datasets import EnronLikeSimulator
from repro.pipeline import render_table


@pytest.fixture(scope="module")
def data():
    return EnronLikeSimulator(seed=42).generate()


def test_streaming_vs_offline(benchmark, data, emit):
    offline = CadDetector(method="exact", seed=0).detect(
        data.graph, anomalies_per_transition=5
    )
    offline_flags = {
        t.index for t in offline.anomalous_transitions()
    }

    def stream_all():
        stream = StreamingCadDetector(
            anomalies_per_transition=5, warmup=3,
            method="exact", seed=0,
        )
        online_results, seconds = [], []
        for snapshot in data.graph:
            start = time.perf_counter()
            online_results.append(stream.push(snapshot))
            seconds.append(time.perf_counter() - start)
        return stream, online_results, seconds

    stream, online_results, seconds = benchmark.pedantic(
        stream_all, rounds=1, iterations=1
    )

    online_flags = {
        result.index for result in online_results
        if result is not None and result.is_anomalous
    }
    finalized = stream.finalize()
    finalized_flags = {
        t.index for t in finalized.anomalous_transitions()
    }

    rows = [
        ("offline global delta", len(offline_flags),
         offline.total_anomalous_nodes()),
        ("online (at arrival)", len(online_flags),
         sum(len(r.anomalous_nodes) for r in online_results
             if r is not None)),
        ("online finalized", len(finalized_flags),
         finalized.total_anomalous_nodes()),
    ]
    table = render_table(
        ("mode", "flagged transitions", "total anomalous nodes"),
        rows, title="Streaming CAD vs offline CAD (Enron-like, l=5)",
    )
    emit("streaming_online", table + "\n\n"
         "push latency (n=151, exact backend): first scored push "
         f"{seconds[1]:.3f} s, last push (T={len(seconds) - 1}) "
         f"{seconds[-1]:.3f} s\n"
         f"offline flags: {sorted(offline_flags)}\n"
         f"online-at-arrival flags: {sorted(online_flags)}")

    # finalized streaming equals the offline result exactly
    assert finalized_flags == offline_flags
    assert finalized.node_counts().tolist() == \
        offline.node_counts().tolist()
    # online-at-arrival catches the majority of the offline flags
    overlap = len(online_flags & offline_flags)
    assert overlap >= int(0.6 * len(offline_flags))
