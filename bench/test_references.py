"""Tests of the benchmark's references against hand values, and of each
check against a wrong answer.  Run with `python -m pytest bench`."""

import json
import os
from fractions import Fraction as F
from time import perf_counter

import numpy as np
import pytest

import layers
import probe
import references as ref
import tracing
from references import CheckError

H3 = ref.heisenberg_constants(3)
C_H3 = ref.tensor(3, H3)


def test_ricci_hand_values():
    ric = ref.ricci_operator(ref.extension_tensor(C_H3, np.diag([1, 1, 2])))
    assert np.allclose(np.linalg.eigvalsh(ric), [-7.5, -6, -4.5, -4.5])
    # abelian R^4 extended by the identity is real hyperbolic space
    ric = ref.ricci_operator(ref.extension_tensor(np.zeros((4, 4, 4)), np.eye(4)))
    assert np.allclose(ric, -4 * np.eye(5))


def test_ricci_spectrum_is_frame_independent():
    rng = np.random.default_rng(0)
    E = ref.extension_tensor(C_H3, np.diag([1, 1, 2]))
    g = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    gram = g.T @ g
    # the same metric algebra, written in the basis g^-1 e_i
    moved = np.einsum("ia,jb,ijk,ck->abc", np.linalg.inv(g), np.linalg.inv(g), E, g)
    a = np.linalg.eigvalsh(ref.ricci_operator(E, gram))
    b = np.linalg.eigvalsh(ref.ricci_operator(moved, np.eye(4)))
    assert np.allclose(a, b)


def test_check_witness_accepts_and_rejects():
    D = np.diag([1.0, 1.0, 2.0])
    h, X = np.eye(3), np.zeros(3)
    assert ref.check_witness(C_H3, D, 1.0, X, h, -4.5) == pytest.approx(-4.5)
    with pytest.raises(CheckError, match="not below"):
        # diag(1, -1, 0) fails the necessary condition: lambda_max >= 0
        ref.check_witness(C_H3, np.diag([1.0, -1.0, 0.0]), 1.0, X, h, -1.0)
    with pytest.raises(CheckError, match="disagrees"):
        ref.check_witness(C_H3, D, 1.0, X, h, -4.4)


def test_witness_gram_of_a_scaled_metric():
    # h = 2 I halves the frame: the gram matrix is 4 on the nilpotent part
    G = ref.witness_gram(1.0, np.zeros(3), 2 * np.eye(3))
    assert np.allclose(G, np.diag([1, 4, 4, 4]))


def test_heisenberg_sections():
    assert [len(ref.heisenberg_section_vertices(k)) for k in (1, 2, 3)] == [2, 8, 24]
    assert ref.heisenberg_section_vertices(1) == {(F(-1, 2), F(1), F(1, 2)),
                                                  (F(1), F(-1, 2), F(1, 2))}
    T = F(1, 3)
    octagon = {ref.heisenberg_diagonal([T * x, T * y], T) for x, y in
               [(-1, 0), (-1, 1), (0, -1), (0, 2), (1, -1), (1, 2), (2, 0), (2, 1)]}
    assert ref.heisenberg_section_vertices(2) == octagon


def test_check_section_rejects_a_perturbed_vertex():
    verts = sorted(ref.heisenberg_section_vertices(2))
    ref.check_section(verts, 2)
    moved = [list(v) for v in verts]
    moved[3][0] += F(1, 1000)
    with pytest.raises(CheckError):
        ref.check_section(moved, 2)
    with pytest.raises(CheckError):
        ref.check_section(verts[1:], 2)


def test_membership_matches_the_heisenberg3_inequalities():
    grid = [F(i, 4) for i in range(-8, 9)]
    for a in grid:
        for b in grid:
            want = 2 * a + b > 0 and a + 2 * b > 0
            assert ref.heisenberg_in_cone((a, b, a + b)) == want
    with pytest.raises(CheckError):
        ref.heisenberg_in_cone((1, 1, 3))


def test_h3_margin_hand_values():
    assert ref.h3_margin(1, 1) == F(3, 2)
    assert ref.h3_margin(F(1, 3), F(1, 3)) == F(1, 2)
    assert ref.h3_margin(2, -1) == 0          # min + max/2 on the boundary
    assert ref.h3_margin(-1, -2) == -3        # both negative: c = 0
    ref.check_margin(F(1, 2), F(1, 3), F(1, 3))
    with pytest.raises(CheckError):
        ref.check_margin(F(1, 2) + F(1, 1000), F(1, 3), F(1, 3))


def test_center_and_necessary_condition():
    assert ref.center(3, H3) == [[0, 0, 1]]
    assert ref.center(5, ref.tricky5_constants()) == [[0, 0, -1, 1, 0], [0, 0, 0, 0, 1]]
    assert len(ref.center(3, {})) == 3
    assert ref.necessary_condition((1, 1, 2), 3, H3)
    assert not ref.necessary_condition((1, -1, 0), 3, H3)      # zero on the centre
    assert not ref.necessary_condition((-1, -1, -2), 3, H3)    # negative trace
    f5 = ref.filiform_constants(5)
    assert not ref.necessary_condition((4, -7, -3, 1, 5), 5, f5)   # trace 0
    assert not ref.necessary_condition((2, -8, -6, -4, -2), 5, f5)
    assert ref.necessary_condition((-2, 8, 6, 4, 2), 5, f5)


def test_moment_value_and_action():
    assert np.allclose(ref.moment_value(C_H3), np.diag([-1, -1, 1]))
    g = np.diag([2.0, 3.0, 5.0])
    acted = ref.acted_tensor(C_H3, g)
    assert acted[0, 1, 2] == pytest.approx(5 / 6) and acted[1, 0, 2] == pytest.approx(-5 / 6)
    assert np.count_nonzero(np.round(acted, 12)) == 2


def test_check_moment_point_rejects_wrong_and_off_slice_values():
    g = np.diag([2.0, 3.0, 5.0])
    m = ref.moment_value(ref.acted_tensor(C_H3, g))
    ref.check_moment_point(C_H3, g, m)
    wrong = m.copy()
    wrong[0, 0] += 1e-3
    with pytest.raises(CheckError, match="differs"):
        ref.check_moment_point(C_H3, g, wrong)
    # a shear of e3 into e4 moves tricky5's moment value off the slice
    C = ref.tensor(5, ref.tricky5_constants())
    g = np.eye(5)
    g[2, 3] = 0.7
    m = ref.moment_value(ref.acted_tensor(C, g))
    with pytest.raises(CheckError, match="slice"):
        ref.check_moment_point(C, g, m)


def test_check_sampled_certificate():
    D = (1, 1, 2)
    # one weight point: D - 1/2 (-1, -1, 1) = (3/2, 3/2, 3/2)
    ref.check_sampled_certificate(D, [(-1.0, -1.0, 1.0)], {0: F(1, 2)}, F(3, 2))
    with pytest.raises(CheckError):
        ref.check_sampled_certificate(D, [(-1.0, -1.0, 1.0)], {0: F(1, 2)},
                                      F(3, 2) + F(1, 1000))
    with pytest.raises(CheckError, match="negative"):
        ref.check_sampled_certificate(D, [(-1.0, -1.0, 1.0)], {0: F(-1, 2)}, F(1, 2))
    # sorting within the block {1, 2} of equal D entries is load-bearing:
    # unsorted, these two points would support a margin of 3/2
    points = [(0.0, -2.0, 1.0), (-2.0, 0.0, 1.0)]
    coeffs = {0: F(1, 2), 1: F(1, 2)}
    ref.check_sampled_certificate(D, points, coeffs, F(1))
    with pytest.raises(CheckError):
        ref.check_sampled_certificate(D, points, coeffs, F(3, 2))


def test_tracer_self_times():
    tr = tracing.Tracer()

    def inner():
        return 1

    inner = tr.wrap("inner", inner)

    def outer():
        return inner() + inner()

    outer = tr.wrap("outer", outer)
    assert outer() == 2 and not tr.spans      # inactive: nothing recorded
    tr.active = True
    outer()
    totals = tr.layer_totals()
    assert totals["outer"][0] == 1 and totals["inner"][0] == 2
    calls, total, self_s, _ = totals["outer"]
    assert self_s == pytest.approx(total - totals["inner"][1])
    assert tr.calls_under("inner", "outer") == 2


def test_probe_clock_leaves_out_the_handler():
    host = probe.Probe()
    host.start()
    try:
        spent, t0, c0 = host.spent, perf_counter(), host.clock()
        while perf_counter() - t0 < 0.35:
            pass
        wall, clock = perf_counter() - t0, host.clock() - c0
    finally:
        host.stop()
    assert len(host.samples) >= 3          # the first tick and two or more timed
    assert 0 < wall - clock == pytest.approx(host.spent - spent, abs=1e-4)
    mean = sum(host.samples) / len(host.samples)
    assert host.factor() == pytest.approx(mean / probe.REFERENCE_S)
    # a window without samples falls back to all of them
    assert host.factor(since=perf_counter()) == host.factor()
    last = host.ends[-1]
    assert host.factor(last, last) == host.samples[-1] / probe.REFERENCE_S
    assert host.scale(2.0, last, last) == pytest.approx(
        2.0 / host.factor(last - probe.WINDOW_S, last + probe.WINDOW_S))


def test_benchmark_json_lists_the_per_layer_metrics():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
