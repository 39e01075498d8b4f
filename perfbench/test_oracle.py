"""Checks of the benchmark's own oracle on hand-computed graphs.

    python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import oracle


def test_path_graph():
    # 0 - 1 - 2 - 3, qualities 3, 0, 1, 2
    edges = np.array([[0, 1], [1, 2], [2, 3]])
    qual = np.array([3, 0, 1, 2])
    mean, median = oracle.neighbor_mean_median(4, edges, np.array([1, 2, 2, 1]))
    assert mean.tolist() == [2.0, 1.5, 1.5, 2.0]
    # lower median of {1, 2} is 1
    assert median.tolist() == [2.0, 1.0, 1.0, 2.0]
    s = oracle.paradox_summary(4, edges, qual)
    # degree: ends (1 < 2) count for mean and median; middles (2 < 1.5) do not
    assert s["frac_degree_mean"] == 0.5
    assert s["frac_degree_median"] == 0.5
    # quality neighbour means: 0 | 2 | 1 | 1 -> nodes 1 (0 < 2) and 2 (1 < 1 no)
    assert s["frac_quality_mean"] == 0.25
    # quality neighbour lower medians: 0 | 1 | 0 | 1 -> node 1 only
    assert s["frac_quality_median"] == 0.25
    assert s["isolated"] == 0


def test_star_with_isolated_node():
    # hub 0 linked to 1, 2, 3; node 4 isolated
    edges = np.array([[0, 1], [2, 0], [0, 3]])
    qual = np.array([0, 1, 2, 3, 7])
    s = oracle.paradox_summary(5, edges, qual)
    assert s["isolated"] == 1
    # leaves have degree 1 < 3; the hub's neighbours have degree 1
    assert s["frac_degree_mean"] == 0.75
    assert s["frac_degree_median"] == 0.75
    # hub: 0 < mean 2 and 0 < lower median 2; leaves see quality 0
    assert s["frac_quality_mean"] == 0.25
    assert s["frac_quality_median"] == 0.25
    mean, median = oracle.neighbor_mean_median(5, edges, qual)
    assert math.isnan(mean[4]) and math.isnan(median[4])


def test_even_neighbourhood_takes_lower_median():
    # node 0 has neighbours of quality 5, 1, 4, 2: sorted 1 2 4 5 -> 2
    edges = np.array([[0, 1], [0, 2], [0, 3], [0, 4]])
    qual = np.array([0, 5, 1, 4, 2])
    _, median = oracle.neighbor_mean_median(5, edges, qual)
    assert median[0] == 2.0


def test_structure_errors():
    indptr = np.array([0, 1, 2])
    assert oracle.structure_errors(2, np.array([[0, 1]]), indptr) == []
    assert "self-loop present" in oracle.structure_errors(
        2, np.array([[0, 0]]), indptr
    )
    dup = oracle.structure_errors(2, np.array([[0, 1], [1, 0]]), np.array([0, 2, 4]))
    assert dup == ["duplicate edge present"]
    assert oracle.structure_errors(2, np.array([[0, 1]]), np.array([0, 2, 2]))


def test_arrival_errors():
    # beta = 1: clique {0, 1}, then 2 -> 0, 3 -> 2
    good = np.array([[0, 1], [2, 0], [3, 2]])
    assert oracle.arrival_errors(4, 1, good) == []
    later = np.array([[0, 1], [2, 3], [3, 2]])
    assert oracle.arrival_errors(4, 1, later) == ["an arrival links to a node born after it"]


def test_joint_histogram_and_tv():
    edges = np.array([[0, 1], [1, 2]])
    hist = oracle.joint_histogram(3, edges, np.array([0, 1, 0]))
    assert hist == {(1, 0): pytest.approx(2 / 3), (2, 1): pytest.approx(1 / 3)}
    probs = np.zeros((20, 2))
    probs[0, 0] = 2 / 3
    probs[1, 1] = 1 / 3
    assert oracle.tv_low_degree(hist, probs, beta=1) == pytest.approx(0.0)

