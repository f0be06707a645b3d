"""Unit tests for repro.routing.coloring — bipartite edge coloring."""

import sys

import numpy as np
import pytest

from repro.routing.coloring import edge_color_euler, validate_coloring


def permutation_edges(w, perm):
    """The bank multigraph of a data permutation (what offline.py builds)."""
    src = np.arange(w * w) % w
    dst = perm % w
    return list(zip(src.tolist(), dst.tolist()))


class TestEdgeColoring:
    def test_identity_permutation(self):
        w = 4
        edges = permutation_edges(w, np.arange(w * w))
        colors = edge_color_euler(edges, w)
        assert validate_coloring(edges, colors)
        assert set(colors) == set(range(w))

    def test_transpose_permutation(self):
        w = 8
        idx = np.arange(w * w)
        perm = (idx % w) * w + idx // w
        edges = permutation_edges(w, perm)
        colors = edge_color_euler(edges, w)
        assert validate_coloring(edges, colors)

    def test_random_permutations(self, rng):
        w = 8
        for _ in range(5):
            perm = rng.permutation(w * w)
            edges = permutation_edges(w, perm)
            colors = edge_color_euler(edges, w)
            assert validate_coloring(edges, colors)

    @pytest.mark.parametrize("w", [2, 4, 8, 16, 32])
    def test_power_of_two_degrees(self, w, rng):
        edges = permutation_edges(w, rng.permutation(w * w))
        colors = edge_color_euler(edges, w)
        assert validate_coloring(edges, colors)
        assert set(colors) == set(range(w))

    @pytest.mark.parametrize("w", [3, 5, 6, 7, 12])
    def test_odd_and_mixed_degrees(self, w, rng):
        """Odd degrees exercise the matching-peel branch."""
        edges = permutation_edges(w, rng.permutation(w * w))
        colors = edge_color_euler(edges, w)
        assert validate_coloring(edges, colors)
        assert set(colors) == set(range(w))

    def test_color_classes_have_equal_size(self, rng):
        """Each color class of a w-regular multigraph is a perfect
        matching: exactly w edges."""
        w = 6
        perm = rng.permutation(w * w)
        edges = permutation_edges(w, perm)
        colors = np.asarray(edge_color_euler(edges, w))
        for c in range(w):
            assert (colors == c).sum() == w

    def test_parallel_multiedges_get_distinct_colors(self):
        """Two parallel edges must land in different rounds."""
        edges = [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]
        # degree 3? left 0: (0,0)x2,(0,1) = 3; left 1: 3; right 0: 3; right 1: 3.
        colors = edge_color_euler(edges, 3)
        assert validate_coloring(edges, colors)
        assert colors[0] != colors[1]
        assert colors[4] != colors[5]

    def test_degree_one(self):
        edges = [(0, 1), (1, 0)]
        colors = edge_color_euler(edges, 1)
        assert colors == [0, 0]

    def test_rejects_irregular(self):
        with pytest.raises(ValueError, match="regular"):
            edge_color_euler([(0, 0), (0, 1)], 1)

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            edge_color_euler([(0, 0)], 0)


class TestValidateColoring:
    def test_accepts_proper(self):
        assert validate_coloring([(0, 0), (0, 1)], [0, 1])

    def test_rejects_shared_left_endpoint(self):
        assert not validate_coloring([(0, 0), (0, 1)], [0, 0])

    def test_rejects_shared_right_endpoint(self):
        assert not validate_coloring([(0, 1), (2, 1)], [0, 0])

    def test_rejects_length_mismatch(self):
        assert not validate_coloring([(0, 0)], [0, 1])


def test_routing_runs_without_networkx(monkeypatch, capsys):
    """numpy is the only dependency: the offline router, the odd-degree
    matching peel and the zoo's cf_permute run with networkx blocked."""
    from repro.apps.zoo import run_cf_permute
    from repro.cli import main
    from repro.core.mappings import RAPMapping
    from repro.dmm.machine import DiscreteMemoryMachine
    from repro.routing.offline import (
        random_data_permutation,
        scheduled_permutation_program,
    )

    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ImportError):
        import networkx  # noqa: F401

    assert main(["offline"]) == 0
    assert "scheduled" in capsys.readouterr().out
    for w in (3, 5, 6, 7, 12):
        perm = random_data_permutation(w, seed=w)
        prog = scheduled_permutation_program(perm, w)
        assert DiscreteMemoryMachine(w, 1, 2 * w * w).run(prog).max_congestion == 1
    outcome = run_cf_permute(RAPMapping.random(6, 1), seed=2)
    assert outcome.correct and outcome.max_congestion == 1
