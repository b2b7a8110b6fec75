import numpy as np
import pytest

from cutflow.conditions import BoundaryRegion, validate_regions, wall_regions
from cutflow.errors import ConfigurationError
from cutflow.grid import build_mesh


def test_parabola_profile_peak_and_zeros():
    r = BoundaryRegion(name="in", side="left", kind="velocity", span=(0.2, 0.8),
                       profile="parabola", amplitude=2.0)
    x = np.array([[0.0, 0.5], [0.0, 0.2], [0.0, 0.8]])
    v = r.velocity_at(x)
    np.testing.assert_allclose(v[0], [2.0, 0.0], atol=1e-14)  # peak, inward = +x
    np.testing.assert_allclose(v[1], [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(v[2], [0.0, 0.0], atol=1e-14)


def test_parabola_inward_direction_per_side():
    for side, inward in (("left", [1, 0]), ("right", [-1, 0]),
                         ("bottom", [0, 1]), ("top", [0, -1])):
        r = BoundaryRegion(name="r", side=side, kind="velocity", span=(0.0, 1.0),
                           profile="parabola", amplitude=1.0)
        mid = {"left": [0, 0.5], "right": [1, 0.5],
               "bottom": [0.5, 0], "top": [0.5, 1]}[side]
        np.testing.assert_allclose(r.velocity_at(np.array([mid]))[0], inward,
                                   atol=1e-14)


def test_sin_modulation():
    r = BoundaryRegion(name="in", side="left", kind="velocity", span=(0.0, 1.0),
                       profile="parabola", amplitude=1.0, frequency=2 * np.pi)
    v0 = r.velocity_at(np.array([[0.0, 0.5]]), t=0.0)
    v4 = r.velocity_at(np.array([[0.0, 0.5]]), t=0.25)
    np.testing.assert_allclose(v0[0], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(v4[0], [1.0, 0.0], atol=1e-12)


def test_wall_fill_and_validation():
    m = build_mesh(((0, 0), (1, 1)), (4, 4))
    tagged = [
        BoundaryRegion(name="in", side="left", kind="velocity", span=(0.25, 0.75),
                       profile="parabola", amplitude=1.0),
        BoundaryRegion(name="out", side="right", kind="traction"),
    ]
    regions = wall_regions(m, tagged)
    validate_regions(m, regions)  # must not raise
    sides = {}
    for r in regions:
        sides.setdefault(r.side, []).append(r)
    assert len(sides["left"]) == 3  # wall below, inlet, wall above
    assert len(sides["right"]) == 1


def test_validation_rejects_overlap_and_gap():
    m = build_mesh(((0, 0), (1, 1)), (2, 2))
    overlap = [
        BoundaryRegion(name="a", side="left", kind="traction", span=(0.0, 0.6)),
        BoundaryRegion(name="b", side="left", kind="traction", span=(0.5, 1.0)),
        BoundaryRegion(name="r", side="right", kind="traction"),
        BoundaryRegion(name="t", side="top", kind="traction"),
        BoundaryRegion(name="bo", side="bottom", kind="traction"),
    ]
    with pytest.raises(ConfigurationError):
        validate_regions(m, overlap)
    gap = [BoundaryRegion(name="a", side="left", kind="traction", span=(0.0, 0.4))]
    with pytest.raises(ConfigurationError):
        validate_regions(m, gap)


def test_bad_region_configs():
    with pytest.raises(ConfigurationError):
        BoundaryRegion(name="x", side="diagonal", kind="traction")
    with pytest.raises(ConfigurationError):
        BoundaryRegion(name="x", side="left", kind="sticky")
    with pytest.raises(ConfigurationError):
        BoundaryRegion(name="x", side="left", kind="velocity", profile="parabola")


def test_validation_rejects_a_tagged_region_named_like_a_generated_wall():
    # the tagged wall_left_0 covers the lower half of the left side, and the
    # generated wall above it takes the same name
    m = build_mesh(((0, 0), (1, 1)), (8, 8))
    tagged = [BoundaryRegion(name="wall_left_0", side="left", kind="velocity",
                             span=(0.0, 0.5))]
    regions = wall_regions(m, tagged)
    assert [r.name for r in regions].count("wall_left_0") == 2
    with pytest.raises(ConfigurationError, match="'wall_left_0'"):
        validate_regions(m, regions)
