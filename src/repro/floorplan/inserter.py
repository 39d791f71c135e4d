"""The paper's custom NoC-insertion floorplanning routine (Sec. VII).

"We consider one switch or TSV macro at a time. We try to find a free space
near its ideal location to place it. [...] If no space is available, we
displace the already placed blocks from their positions in the x or y
direction by the size of the component, creating space. Moving a block to
create space for the new component can cause overlap with other already
placed blocks. We iteratively move the necessary blocks in the same
direction as the first block, until we remove all overlaps."

The routine operates on a single layer; callers loop over layers.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FloorplanError
from repro.floorplan.geometry import _EPS, Rect, rects_overlap
from repro.floorplan.placement import PlacedComponent


@dataclass(frozen=True)
class NewComponent:
    """A component to insert: name, kind, size and ideal centre position."""

    name: str
    kind: str
    width: float
    height: float
    ideal_center: Tuple[float, float]


@dataclass
class InsertionReport:
    """Statistics of one insertion run (used by tests and experiments)."""

    placed_free: int = 0
    placed_by_displacement: int = 0
    total_displacement: float = 0.0


def insert_components(
    existing: Sequence[PlacedComponent],
    new_components: Sequence[NewComponent],
    *,
    search_radius: float = 1.5,
    grid_step: float = 0.1,
    report: Optional[InsertionReport] = None,
) -> List[PlacedComponent]:
    """Insert ``new_components`` into a placed layer, removing all overlap.

    Args:
        existing: Already-placed components of one layer (all same layer).
        new_components: Components to add, in insertion order. As in the
            paper, earlier insertions may create gaps that later ones reuse.
        search_radius: Radius (mm) of the free-space search around the ideal
            position — "the area in which we look for free space is the same
            for all of the switches, as it is given as a constant".
        grid_step: Resolution of the candidate-position search.
        report: Optional statistics accumulator.

    Returns:
        A new component list: every input component (possibly displaced)
        plus the new ones, overlap-free.
    """
    layers = {c.layer for c in existing}
    if len(layers) > 1:
        raise FloorplanError(
            f"insert_components works on a single layer, got layers {sorted(layers)}"
        )
    layer = layers.pop() if layers else 0
    if report is None:
        report = InsertionReport()

    names = [c.name for c in existing]
    kinds = [c.kind for c in existing]
    rects = [c.rect for c in existing]
    original = {c.name: c.rect for c in existing}

    for comp in new_components:
        ideal_x = max(0.0, comp.ideal_center[0] - comp.width / 2.0)
        ideal_y = max(0.0, comp.ideal_center[1] - comp.height / 2.0)
        target = Rect(ideal_x, ideal_y, comp.width, comp.height)

        spot = _find_free_spot(target, rects, search_radius, grid_step)
        if spot is not None:
            rects.append(spot)
            report.placed_free += 1
        else:
            rects.append(target)
            _displace(rects, len(rects) - 1)
            report.placed_by_displacement += 1
        names.append(comp.name)
        kinds.append(comp.kind)

    for name, rect in zip(names, rects):
        if name in original:
            old = original[name]
            report.total_displacement += abs(rect.x - old.x) + abs(rect.y - old.y)

    return [
        PlacedComponent(name=n, kind=k, rect=r, layer=layer)
        for n, k, r in zip(names, kinds, rects)
    ]


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------

def _find_free_spot(
    target: Rect,
    placed: Sequence[Rect],
    search_radius: float,
    grid_step: float,
) -> Optional[Rect]:
    """Nearest overlap-free position for ``target`` within the search radius.

    Candidate offsets form a grid of pitch ``grid_step`` over the search
    square, visited in increasing Manhattan distance from the ideal position,
    so the first hit is the closest free spot at that resolution. The grid
    (rather than a sparse ring scan) matters in tightly packed floorplans,
    where the only free space is thin slivers between cores.

    The ideal position and every grid candidate are tested at once: one
    ``candidates x placed`` boolean matrix, each entry the
    :func:`~repro.floorplan.geometry.rects_overlap` expression evaluated in
    float64 (the same IEEE operations as the scalar test), so the first free
    candidate in grid order is the one the one-at-a-time scan finds. The
    returned rect is rebuilt from the original scalars, keeping the
    coordinate types (``float`` or ``np.float64``) of the scalar code.
    """
    if not placed:
        return target
    steps = max(1, int(math.ceil(search_radius / grid_step)))
    offsets, dx, dy = _offset_grid(steps, grid_step)
    xs = target.x + dx
    ys = target.y + dy
    boxes = np.array([(r.x, r.x + r.width, r.y, r.y + r.height) for r in placed])
    bx, bx2, by, by2 = boxes.T
    xs_c, ys_c = xs[:, None], ys[:, None]
    overlap = (
        (xs_c + _EPS < bx2)
        & (bx + _EPS < xs_c + target.width)
        & (ys_c + _EPS < by2)
        & (by + _EPS < ys_c + target.height)
    ).any(axis=1)
    free = ~(overlap | (xs < 0) | (ys < 0))
    if not free.any():
        return None
    i = int(free.argmax())
    if i == 0:
        return target
    ox, oy = offsets[i]
    return target.moved_to(target.x + ox, target.y + oy)


@functools.lru_cache(maxsize=16, typed=True)
def _offset_grid(
    steps: int, grid_step: float
) -> Tuple[Tuple[Tuple[float, float], ...], np.ndarray, np.ndarray]:
    """The search grid in visiting order, led by the zero offset.

    Offsets are sorted as ``(|dx| + |dy|, dx, dy)`` tuples: increasing
    Manhattan distance, ties broken by ``dx`` then ``dy``. Returned both as
    the scalar ``(dx, dy)`` pairs (rebuilding the chosen rect) and as
    read-only float64 arrays (testing every candidate at once).
    """
    offsets = []
    for i in range(-steps, steps + 1):
        for j in range(-steps, steps + 1):
            if i == 0 and j == 0:
                continue
            dx, dy = i * grid_step, j * grid_step
            offsets.append((abs(dx) + abs(dy), dx, dy))
    offsets.sort()
    pairs = ((0.0, 0.0),) + tuple((dx, dy) for _dist, dx, dy in offsets)
    arrays = np.array(pairs, dtype=np.float64).T.copy()
    arrays.setflags(write=False)
    return pairs, arrays[0], arrays[1]


def _displace(rects: List[Rect], new_index: int) -> None:
    """Resolve overlaps with ``rects[new_index]`` by cascading pushes.

    Tries pushing in +x and +y, keeps the direction with the smaller total
    displacement (the paper displaces "in the x or y direction").
    """
    for_x = _cascade(rects, new_index, axis=0)
    for_y = _cascade(rects, new_index, axis=1)
    chosen = for_x if for_x[0] <= for_y[0] else for_y
    _, moved = chosen
    for idx, rect in moved.items():
        rects[idx] = rect


def _cascade(
    rects: Sequence[Rect], new_index: int, axis: int
) -> Tuple[float, dict]:
    """Simulate pushing all conflicting blocks along ``axis`` (0=x, 1=y).

    Returns (total displacement, {index: new rect}). The new component at
    ``new_index`` never moves. Pushes strictly increase the pushed
    coordinate, so the cascade terminates.
    """
    working = list(rects)
    total = 0.0
    # FIFO worklist of blocks that may overlap something and must be
    # checked against all others (in index order); start from the
    # inserted block.
    frontier = deque([new_index])
    guard = 0
    while frontier:
        guard += 1
        if guard > 10_000:
            raise FloorplanError("displacement cascade failed to converge")
        pusher = frontier.popleft()
        pr = working[pusher]
        for idx in range(len(working)):
            if idx == pusher or idx == new_index:
                continue
            r = working[idx]
            if rects_overlap(pr, r):
                if axis == 0:
                    shift = pr.x2 - r.x
                    moved = r.translated(shift, 0.0)
                else:
                    shift = pr.y2 - r.y
                    moved = r.translated(0.0, shift)
                working[idx] = moved
                total += shift
                frontier.append(idx)
    changed = {
        i: r for i, r in enumerate(working) if r is not rects[i] and i != new_index
    }
    return total, changed
