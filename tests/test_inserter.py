"""Custom NoC-insertion routine (repro.floorplan.inserter, paper Sec. VII)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import FloorplanError
from repro.floorplan.geometry import Rect
from repro.floorplan.inserter import (
    InsertionReport,
    NewComponent,
    insert_components,
)
from repro.floorplan.placement import ChipFloorplan, PlacedComponent
from repro.floorplan.reference import naive_insert_components


def _cores(*rects, layer=0):
    return [
        PlacedComponent(name=f"core{i}", kind="core", rect=r, layer=layer)
        for i, r in enumerate(rects)
    ]


def _legal(components):
    fp = ChipFloorplan(components=list(components))
    return fp.is_legal()


class TestFreeSpaceSearch:
    def test_places_at_ideal_when_free(self):
        cores = _cores(Rect(0, 0, 1, 1))
        new = [NewComponent("sw0", "switch", 0.2, 0.2, ideal_center=(3.0, 3.0))]
        out = insert_components(cores, new)
        sw = [c for c in out if c.name == "sw0"][0]
        assert sw.center == pytest.approx((3.0, 3.0))

    def test_finds_nearby_free_spot(self):
        # Ideal position is inside a core; a gap exists just to the right.
        cores = _cores(Rect(0, 0, 2, 2))
        new = [NewComponent("sw0", "switch", 0.3, 0.3, ideal_center=(1.0, 1.0))]
        report = InsertionReport()
        out = insert_components(cores, new, search_radius=2.0, report=report)
        assert _legal(out)
        assert report.placed_free == 1
        assert report.placed_by_displacement == 0
        # Core must not have moved: free-space insertion is non-invasive.
        core = [c for c in out if c.name == "core0"][0]
        assert (core.rect.x, core.rect.y) == (0.0, 0.0)

    def test_displacement_when_no_space(self):
        # Dense 3x3 block of cores, tiny search radius: must displace.
        rects = [Rect(i, j, 1, 1) for i in range(3) for j in range(3)]
        cores = _cores(*rects)
        new = [NewComponent("sw0", "switch", 1.0, 1.0, ideal_center=(1.5, 1.5))]
        report = InsertionReport()
        out = insert_components(
            cores, new, search_radius=0.3, grid_step=0.1, report=report
        )
        assert _legal(out)
        assert report.placed_by_displacement == 1
        assert report.total_displacement > 0

    def test_multiple_insertions_reuse_gaps(self):
        rects = [Rect(i, 0, 1, 1) for i in range(4)]
        cores = _cores(*rects)
        new = [
            NewComponent(f"sw{k}", "switch", 0.4, 0.4, ideal_center=(2.0, 0.5))
            for k in range(3)
        ]
        out = insert_components(cores, new, search_radius=3.0)
        assert _legal(out)
        assert len(out) == 7

    def test_empty_layer(self):
        new = [NewComponent("sw0", "switch", 0.5, 0.5, ideal_center=(1.0, 1.0))]
        out = insert_components([], new)
        assert len(out) == 1 and _legal(out)

    def test_mixed_layers_rejected(self):
        comps = [
            PlacedComponent("a", "core", Rect(0, 0, 1, 1), 0),
            PlacedComponent("b", "core", Rect(2, 0, 1, 1), 1),
        ]
        with pytest.raises(FloorplanError):
            insert_components(comps, [])

    def test_clamps_to_nonnegative_coords(self):
        cores = _cores(Rect(0, 0, 1, 1))
        new = [NewComponent("sw0", "switch", 0.4, 0.4, ideal_center=(0.0, 0.0))]
        out = insert_components(cores, new, search_radius=2.0)
        sw = [c for c in out if c.name == "sw0"][0]
        assert sw.rect.x >= 0 and sw.rect.y >= 0
        assert _legal(out)


class TestInsertionProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_always_legal_and_complete(self, data):
        n_cores = data.draw(st.integers(min_value=0, max_value=6))
        # Non-overlapping cores on a grid with jitter-free placement.
        rects = [
            Rect((i % 3) * 1.5, (i // 3) * 1.5, 1.0, 1.0) for i in range(n_cores)
        ]
        cores = _cores(*rects)
        n_new = data.draw(st.integers(min_value=1, max_value=4))
        new = []
        for k in range(n_new):
            cx = data.draw(st.floats(min_value=0.0, max_value=5.0))
            cy = data.draw(st.floats(min_value=0.0, max_value=5.0))
            side = data.draw(st.floats(min_value=0.1, max_value=0.8))
            new.append(NewComponent(f"sw{k}", "switch", side, side, (cx, cy)))
        out = insert_components(cores, new, search_radius=1.0, grid_step=0.25)
        assert len(out) == n_cores + n_new
        assert _legal(out)
        names = {c.name for c in out}
        assert all(f"sw{k}" in names for k in range(n_new))


# --------------------------------------------------------------------------
# the array search against the frozen per-candidate inserter
# --------------------------------------------------------------------------

#: A coordinate as the callers produce it: a plain float, or the
#: ``np.float64`` the placement LP hands over.
_coord = st.builds(
    lambda v, kind: kind(v),
    st.floats(min_value=0.0, max_value=4.0),
    st.sampled_from([float, np.float64]),
)


@st.composite
def _layers(draw):
    """One layer: cores (dense tilings included), components to insert and
    a search grid whose pitch need not divide the radius."""
    layer = draw(st.integers(min_value=0, max_value=2))
    if draw(st.booleans()):
        # A gap-free tiling: free space only at its border.
        n = draw(st.integers(min_value=1, max_value=3))
        rects = [Rect(float(i), float(j), 1.0, 1.0)
                 for i in range(n) for j in range(n)]
    else:
        rects = draw(st.lists(
            st.builds(Rect, _coord, _coord,
                      st.floats(min_value=0.2, max_value=1.5),
                      st.floats(min_value=0.2, max_value=1.5)),
            max_size=6,
        ))
    existing = [PlacedComponent(f"core{i}", "core", r, layer)
                for i, r in enumerate(rects)]
    sides = st.floats(min_value=0.1, max_value=0.9)
    # Ideal centres may sit left of / below the die: the clamped target
    # then sits on an axis and half the grid reaches negative coordinates.
    centres = st.floats(min_value=-0.5, max_value=4.5)
    new = [
        NewComponent(f"sw{k}", "switch", side, side,
                     (draw(centres), draw(centres)))
        for k, side in enumerate(draw(st.lists(sides, min_size=1, max_size=4)))
    ]
    if draw(st.booleans()):
        new = [NewComponent(c.name, c.kind, c.width, c.height,
                            tuple(np.float64(v) for v in c.ideal_center))
               for c in new]
    radius = draw(st.floats(min_value=0.05, max_value=1.5))
    step = draw(st.floats(min_value=0.08, max_value=0.5))
    return existing, new, radius, step


def _fingerprint(placed):
    """Every field, coordinates by ``repr`` (which tells a float from an
    ``np.float64``)."""
    return [
        (c.name, c.kind, c.layer,
         tuple(repr(v) for v in (c.rect.x, c.rect.y, c.rect.width, c.rect.height)))
        for c in placed
    ]


_DENSE = [PlacedComponent(f"core{i}{j}", "core", Rect(i, j, 1, 1), 0)
          for i in range(3) for j in range(3)]


class TestMatchesNaiveInserter:
    @settings(max_examples=60, deadline=None)
    @given(case=_layers())
    # Empty layer.
    @example(case=([], [NewComponent("sw0", "switch", 0.5, 0.5, (1.0, 1.0))],
                   1.5, 0.1))
    # No free spot within the radius: the displacement path.
    @example(case=(_DENSE,
                   [NewComponent("sw0", "switch", 1.0, 1.0,
                                 (np.float64(1.5), np.float64(1.5)))],
                   0.3, 0.1))
    # Grid reaching negative coordinates, pitch not dividing the radius.
    @example(case=(_DENSE[:1],
                   [NewComponent("sw0", "switch", 0.4, 0.4, (0.0, 0.0))],
                   1.0, 0.3))
    def test_identical_rects_and_report(self, case):
        existing, new, radius, step = case
        fast_report, naive_report = InsertionReport(), InsertionReport()
        fast = insert_components(existing, new, search_radius=radius,
                                 grid_step=step, report=fast_report)
        naive = naive_insert_components(existing, new, search_radius=radius,
                                        grid_step=step, report=naive_report)
        assert _fingerprint(fast) == _fingerprint(naive)
        assert fast_report == naive_report

    def test_examples_cover_the_displacement_path(self):
        report = InsertionReport()
        new = [NewComponent("sw0", "switch", 1.0, 1.0,
                            (np.float64(1.5), np.float64(1.5)))]
        out = insert_components(_DENSE, new, search_radius=0.3,
                                grid_step=0.1, report=report)
        assert report.placed_by_displacement == 1
        assert type(out[-1].rect.x) is np.float64
