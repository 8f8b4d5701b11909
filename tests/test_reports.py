"""The closed-form Pick builder reports.kernel_report and the criteria that
only assemble data for it: disk FOV/LT/RT, Drury-Arveson FOV/LT and the
constant-multiplier test; and empty input to the fixed-point criteria and
CP maps."""

import numpy as np
import pytest

from picklab import ball, cp, disk
from picklab import quiver as qv
from picklab.errors import DimensionError, DomainError, ShapeError
from picklab.quiver import Grading


def cg(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def rt_on_lt_data(points, X, Y):
    """pick_rt fed the sharp of LT data, so LT shape cases apply to it."""
    return disk.pick_rt(*disk.sharp_lt_to_rt(points, X, Y))


LT_ENTRIES = [disk.pick_lt, rt_on_lt_data, ball.pick_da_lt]
FOV_ENTRIES = [disk.pick_fov, ball.pick_da_fov]
Z1, Z12, Z21 = np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1))


@pytest.mark.parametrize("fn", LT_ENTRIES)
@pytest.mark.parametrize("points, X, Y", [
    ([], [], []),                             # no points
    ([0.1, 0.2], [Z1], [Z1]),                 # one pair for two points
    ([0.1, 0.2], [Z1, Z1], [Z1]),             # fewer targets than directions
    ([0.1], [Z21], [Z1]),                     # X_i and Y_i differ in rows
    ([0.1, 0.2], [Z1, Z12], [Z1, Z1]),        # directions of two widths
    ([0.1, 0.2], [Z1, Z1], [Z1, Z12]),        # targets of two widths
])
def test_lt_shape_errors(fn, points, X, Y):
    with pytest.raises(DimensionError):
        fn(points, X, Y)


@pytest.mark.parametrize("fn", FOV_ENTRIES)
@pytest.mark.parametrize("points, W", [
    ([], []),
    ([0.1, 0.2], [Z1]),
    ([0.1, 0.2], [Z12, Z21]),
    ([0.1, 0.2], [Z12, np.zeros((1, 3))]),
])
def test_fov_shape_errors(fn, points, W):
    with pytest.raises(DimensionError):
        fn(points, W)


@pytest.mark.parametrize("X, Y", [
    ([], []),
    ([Z12], [Z12, Z12]),
    ([Z12, Z21], [Z12, Z21]),
    ([Z21], [np.zeros((1, 1))]),
])
def test_constant_multiplier_shape_errors(X, Y):
    with pytest.raises(ShapeError):
        qv.constant_multiplier_check(X, Y)


@pytest.mark.parametrize("fn", LT_ENTRIES + FOV_ENTRIES)
def test_nan_point_is_outside(fn):
    args = ([Z1, Z1], [Z1, Z1]) if fn in LT_ENTRIES else ([Z1, Z1],)
    with pytest.raises(DomainError):
        fn([np.nan, 0.1], *args)


def test_per_condition_spaces():
    """Disk LT takes an output space per condition and RT an input space per
    condition; at d = 1 LT equals DA-LT and matches the block formula."""
    rng = np.random.default_rng(3)
    lams = np.array([0.2 - 0.1j, -0.5j, 0.6])
    X = [cg(rng, p, 2) for p in (1, 3, 2)]
    Y = [0.3 * cg(rng, p, 4) for p in (1, 3, 2)]
    lt = disk.pick_lt(lams, X, Y)
    expect = np.block([[(X[i] @ X[j].conj().T - Y[i] @ Y[j].conj().T)
                        / (1 - lams[i] * np.conj(lams[j]))
                        for j in range(3)] for i in range(3)])
    assert lt.pick.shape == (6, 6)
    assert np.allclose(lt.pick, expect, rtol=0, atol=1e-13)
    assert np.array_equal(lt.pick, ball.pick_da_lt(lams[:, None], X, Y).pick)
    rt = disk.pick_rt(*disk.sharp_lt_to_rt(lams, X, Y))
    assert np.array_equal(rt.pick, lt.pick)
    assert (lt.method, lt.tail_bound) == ("closed_form", 0.0)


G2 = qv.two_vertex_example()[0]
D2 = Grading(G2, {"a": 1, "b": 1})
EMPTY_INPUT = [
    (disk.pick_frd, ([], []), DimensionError),
    (disk.pick_ltrd, ([], [], []), DimensionError),
    (disk.pick_rtrd, ([], [], []), DimensionError),
    (ball.pick_nc_frd, ([], []), DimensionError),
    (cp.build_phi_disk, ([], [], []), DimensionError),
    (cp.build_phi_star_disk, ([], [], []), DimensionError),
    (qv.pick_qltt, (G2, D2, D2, [], [], []), ShapeError),
    (qv.pick_qltrd, (G2, D2, [], [], []), ShapeError),
    (cp.build_phi_bar_quiver, (G2, D2, D2, [], [], []), ShapeError),
]


@pytest.mark.parametrize(
    "fn, args, error", EMPTY_INPUT,
    ids=[f"{fn.__module__}.{fn.__name__}" for fn, _, _ in EMPTY_INPUT])
def test_empty_input_errors(fn, args, error):
    with pytest.raises(error):
        fn(*args)
