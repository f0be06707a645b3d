"""Unit tests for the two branches of the Euler-split edge colorer
(repro.routing.coloring) and the offline schedule built on it.

Even degrees split along Eulerian circuits; odd degrees peel one
perfect matching first.  ``test_coloring.py`` covers the colorer over
permutation graphs of every width; these cases pin the shapes each
branch sees.
"""

import numpy as np
import pytest

from repro.dmm.machine import DiscreteMemoryMachine
from repro.routing.coloring import edge_color_euler, validate_coloring
from repro.routing.offline import (
    random_data_permutation,
    scheduled_permutation_program,
)


def permutation_edges(w, perm):
    src = np.arange(w * w) % w
    dst = perm % w
    return list(zip(src.tolist(), dst.tolist()))


class TestEulerColoring:
    def test_color_classes_are_perfect_matchings(self, rng):
        """Every color class touches each source and each destination
        bank exactly once."""
        w = 8
        edges = np.asarray(permutation_edges(w, rng.permutation(w * w)))
        colors = np.asarray(edge_color_euler(edges.tolist(), w))
        for c in range(w):
            cls = edges[colors == c]
            assert sorted(cls[:, 0].tolist()) == list(range(w))
            assert sorted(cls[:, 1].tolist()) == list(range(w))

    def test_degree_one(self):
        """A 1-regular graph is its own perfect matching: one color."""
        edges = [(i, (i + 1) % 4) for i in range(4)]
        assert edge_color_euler(edges, 1) == [0, 0, 0, 0]

    def test_parallel_multiedges(self):
        """Degree 2 made only of parallel pairs: the Euler split must
        send the two copies of an edge to different halves."""
        edges = [(0, 0), (0, 0), (1, 1), (1, 1)]
        colors = edge_color_euler(edges, 2)
        assert validate_coloring(edges, colors)
        assert colors[0] != colors[1]
        assert colors[2] != colors[3]

    def test_rejects_irregular(self):
        """Regularity is checked on the destination side too."""
        with pytest.raises(ValueError, match="regular"):
            edge_color_euler([(0, 0), (1, 0)], 1)


class TestScheduledProgramMethods:
    @pytest.mark.parametrize(
        "w",
        [
            pytest.param(8, id="euler"),  # power of two: Euler splits only
            pytest.param(7, id="matching"),  # odd: matching peel first
        ],
    )
    def test_both_methods_schedule_conflict_free(self, w, rng):
        perm = random_data_permutation(w, rng)
        prog = scheduled_permutation_program(perm, w)
        machine = DiscreteMemoryMachine(w, 1, 2 * w * w)
        assert machine.run(prog).max_congestion == 1

    def test_euler_schedule_end_to_end(self, rng):
        """Full offline permutation through the Euler-colored schedule,
        run directly on the machine."""
        w = 8
        perm = random_data_permutation(w, rng)
        data = np.arange(w * w, dtype=float)
        machine = DiscreteMemoryMachine(w, 1, 2 * w * w)
        machine.load(0, data)
        machine.run(scheduled_permutation_program(perm, w))
        out = machine.dump(w * w, w * w)
        expected = np.empty(w * w)
        expected[perm] = data
        assert np.array_equal(out, expected)
