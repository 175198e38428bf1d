"""Same seed, same inputs; another seed, other inputs. Small sizes keep
the tests fast; the generators' code paths are the benchmark's."""

import pytest

import inputs

GENERATORS = {
    "gm-dense": lambda seed: inputs.gaussian_mixture(seed, n=60).digest,
    "sparse-30k": lambda seed: inputs.sparse_transition(seed, n=400).digest,
    "drift-cluster": lambda seed: inputs.drift_stream(
        seed, n=200, snapshots=4).digest,
    "enron-http": lambda seed: inputs.sessions_digest(
        inputs.enron_sessions(seed, 1)),
}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_seed_determines_the_input(workload):
    make = GENERATORS[workload]
    assert make(1) == make(1)
    assert make(1) != make(2)


def test_sessions_get_fresh_simulator_seeds():
    first, second = inputs.enron_sessions(3, 2)
    assert first.bodies != second.bodies
    assert len(first.bodies) == inputs.ENRON_MONTHS


def test_ground_truth_is_planted():
    drift = inputs.drift_stream(5, n=200, snapshots=4)
    assert drift.labels.shape == (3, 200)
    assert drift.labels.sum(axis=1).min() >= 2
    sparse = inputs.sparse_transition(5, n=400)
    assert sparse.labels.any()
    assert not sparse.labels.all()


def test_child_seeds_differ_by_path():
    assert inputs.child_seed(1, 4, 0) != inputs.child_seed(1, 4, 1)
    assert inputs.child_seed(1, 4, 0) == inputs.child_seed(1, 4, 0)
