"""Static environment: voxel occupancy grid and free-space queries.

The world is a uniform voxel grid over an axis-aligned bounding box. A voxel
is occupied iff its closed cell intersects any obstacle box. Free-space
queries inflate the query shape by an axis-aligned margin (the bounding cube
of the agent sphere), which is conservative and never unsafe. Occupied-cell
counting goes through a 3-D summed-area table, so box tests cost O(1).

The hot queries are written for speed and return exactly what the plain
formulations in tests/oracles.py return: box growth and box tests read
eight summed-area corners as Python ints and stop early once the rest of
the growth region is known to be free; the blocked mask of a search is
computed axis by axis (cell centres vary along one axis each); goal
distance fields are a breadth-first search over flat indices of a padded
grid, on which A* runs without bounds tests; and sight lines to many
targets are sampled in one batch, bit for bit as np.linspace samples them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from swarmplan.errors import InfeasibleSeedError

_EPS_CELLS = 1e-9  # index-space slack for exact-boundary decisions
_EPS_BOUNDS = 1e-9  # meters of slack on world-bounds containment
_COARSE = 8  # sight-line samples per first-pass test


def _grid_dims(resolution: float, bounds_min, bounds_max) -> tuple[int, int, int]:
    """Cells per axis of a grid; rejects a non-positive resolution and
    bounds whose extent is not a positive multiple of it."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    extent = bounds_max - bounds_min
    if np.any(extent <= 0):
        raise ValueError("bounds must have positive extent")
    dims = np.round(extent / resolution).astype(int)
    if np.any(np.abs(dims * resolution - extent) > 1e-6):
        raise ValueError("bounds extent must be a multiple of resolution")
    return tuple(int(d) for d in dims)


@dataclass(frozen=True)
class AxisBox:
    """Closed axis-aligned box, min_corner <= max_corner componentwise."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=float).reshape(3)
        hi = np.asarray(self.max_corner, dtype=float).reshape(3)
        if np.any(hi < lo):
            raise ValueError(f"box min {lo} exceeds max {hi}")
        object.__setattr__(self, "min_corner", (float(lo[0]), float(lo[1]), float(lo[2])))
        object.__setattr__(self, "max_corner", (float(hi[0]), float(hi[1]), float(hi[2])))

    @property
    def lo(self) -> np.ndarray:
        return np.array(self.min_corner)

    @property
    def hi(self) -> np.ndarray:
        return np.array(self.max_corner)


@dataclass(frozen=True)
class GridPath:
    """Ordered 6-connected voxel-center waypoints from a grid search."""

    waypoints: np.ndarray

    def __post_init__(self):
        wp = np.asarray(self.waypoints, dtype=float)
        wp.setflags(write=False)
        object.__setattr__(self, "waypoints", wp)

    def __len__(self):
        return len(self.waypoints)


class OccupancyGrid:
    """Voxelized static world with conservative inflated free-space queries."""

    def __init__(self, resolution, bounds_min, bounds_max, occupied=None, boxes=()):
        self.resolution = float(resolution)
        self.bounds_min = np.asarray(bounds_min, dtype=float).reshape(3)
        self.bounds_max = np.asarray(bounds_max, dtype=float).reshape(3)
        self.dims = dims = _grid_dims(self.resolution, self.bounds_min, self.bounds_max)
        if occupied is None:
            occupied = np.zeros(self.dims, dtype=bool)
        occupied = np.asarray(occupied, dtype=bool)
        if occupied.shape != self.dims:
            raise ValueError(f"occupied mask shape {occupied.shape} != dims {self.dims}")
        occupied.setflags(write=False)
        self.occupied = occupied
        self.boxes = tuple(
            (np.array(lo, dtype=float), np.array(hi, dtype=float)) for lo, hi in boxes
        )
        # Summed-area table: _prefix[i, j, k] counts occupied cells below
        # (i, j, k) exclusive, giving O(1) occupied counts for index ranges.
        # Accumulated in place, so the build allocates nothing but the table.
        self._prefix = np.zeros((dims[0] + 1, dims[1] + 1, dims[2] + 1), dtype=np.int64)
        self._prefix[1:, 1:, 1:] = occupied
        for axis in range(3):
            np.add.accumulate(self._prefix, axis=axis, out=self._prefix)
        self._blocked_cache: dict[float, np.ndarray] = {}
        self._field_cache: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "OccupancyGrid":
        """Rasterize a map description: a voxel is occupied iff its closed
        cell intersects any obstacle box."""
        try:
            resolution = float(data["resolution"])
            bmin = np.asarray(data["bounds"]["min"], dtype=float)
            bmax = np.asarray(data["bounds"]["max"], dtype=float)
            raw_boxes = data.get("boxes", [])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed map description: {exc}") from exc
        bmin = bmin.reshape(3)
        bmax = bmax.reshape(3)
        dims = _grid_dims(resolution, bmin, bmax)
        occupied = np.zeros(dims, dtype=bool)
        boxes = []
        for box in raw_boxes:
            lo = np.asarray(box["min"], dtype=float).reshape(3)
            hi = np.asarray(box["max"], dtype=float).reshape(3)
            if np.any(hi < lo):
                raise ValueError("obstacle box has min > max")
            boxes.append((lo, hi))
            rel_lo = (lo - bmin) / resolution
            rel_hi = (hi - bmin) / resolution
            i0 = [max(0, math.ceil(rel_lo[a] - 1 - _EPS_CELLS)) for a in range(3)]
            i1 = [min(dims[a] - 1, math.floor(rel_hi[a] + _EPS_CELLS)) for a in range(3)]
            if all(i0[a] <= i1[a] for a in range(3)):
                occupied[i0[0] : i1[0] + 1, i0[1] : i1[1] + 1, i0[2] : i1[2] + 1] = True
        return cls(resolution, bmin, bmax, occupied, boxes)

    def to_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "bounds": {
                "min": [float(v) for v in self.bounds_min],
                "max": [float(v) for v in self.bounds_max],
            },
            "boxes": [
                {"min": [float(v) for v in lo], "max": [float(v) for v in hi]}
                for lo, hi in self.boxes
            ],
        }

    # -- index helpers -----------------------------------------------------

    def voxel_index(self, point) -> tuple[int, int, int]:
        """Cell containing a point, clamped into the grid."""
        rel = (np.asarray(point, dtype=float) - self.bounds_min) / self.resolution
        idx = np.floor(rel).astype(int)
        return tuple(int(np.clip(idx[a], 0, self.dims[a] - 1)) for a in range(3))

    def voxel_center(self, index) -> np.ndarray:
        return self.bounds_min + (np.asarray(index, dtype=float) + 0.5) * self.resolution

    def _overlap_range(self, lo: np.ndarray, hi: np.ndarray):
        """Inclusive index ranges of cells with positive-measure overlap
        with [lo, hi]; may be empty (min > max) for degenerate boxes."""
        rel_lo = (lo - self.bounds_min) / self.resolution
        rel_hi = (hi - self.bounds_min) / self.resolution
        i0 = np.floor(rel_lo - 1 + _EPS_CELLS).astype(int) + 1
        i1 = np.ceil(rel_hi - _EPS_CELLS).astype(int) - 1
        return i0, i1

    def _clipped_range(self, i0, i1):
        """Inclusive index ranges as half-open [a, b), clipped to the grid,
        with b >= a (an empty range covers no cell)."""
        dims = np.array(self.dims)
        a = np.clip(i0, 0, dims)
        return a, np.maximum(a, np.clip(i1 + 1, 0, dims))

    def _count_occupied(self, i0, i1) -> np.ndarray:
        """Occupied cells in inclusive index ranges (vectorized, clipped)."""
        a, b = self._clipped_range(np.asarray(i0, dtype=int), np.asarray(i1, dtype=int))
        # Gathers from the flat table, with flat offsets per axis, are
        # several times cheaper than three-index gathers.
        p = self._prefix.reshape(-1)
        sy = self.dims[2] + 1
        sx = (self.dims[1] + 1) * sy
        x0, y0, z0 = a[..., 0] * sx, a[..., 1] * sy, a[..., 2]
        x1, y1, z1 = b[..., 0] * sx, b[..., 1] * sy, b[..., 2]
        return (
            p[x1 + y1 + z1]
            - p[x0 + y1 + z1]
            - p[x1 + y0 + z1]
            - p[x1 + y1 + z0]
            + p[x0 + y0 + z1]
            + p[x0 + y1 + z0]
            + p[x1 + y0 + z0]
            - p[x0 + y0 + z0]
        )

    def _cells_occupied(self, lo, hi) -> int:
        """Occupied cells in the half-open index box [lo, hi), from eight
        scalar summed-area reads; needs 0 <= lo <= hi <= dims per axis."""
        p = self._prefix.item
        x0, y0, z0 = lo
        x1, y1, z1 = hi
        return (
            p(x1, y1, z1)
            - p(x0, y1, z1)
            - p(x1, y0, z1)
            - p(x1, y1, z0)
            + p(x0, y0, z1)
            + p(x0, y1, z0)
            + p(x1, y0, z0)
            - p(x0, y0, z0)
        )

    def _cube_cells(self, lo, hi) -> tuple[list[int], list[int]]:
        """Scalar _overlap_range plus _clipped_range for one box [lo, hi]:
        the same float expressions, evaluated on Python floats."""
        a, b = [], []
        for v0, v1, m, d in zip(lo, hi, self.bounds_min.tolist(), self.dims):
            i0 = math.floor((v0 - m) / self.resolution - 1 + _EPS_CELLS) + 1
            i1 = math.ceil((v1 - m) / self.resolution - _EPS_CELLS) - 1
            start = min(max(i0, 0), d)
            a.append(start)
            b.append(max(start, min(max(i1 + 1, 0), d)))
        return a, b

    # -- free-space queries --------------------------------------------------

    def box_is_free(self, box: AxisBox, inflation: float) -> bool:
        """True iff the box inflated on every axis touches no occupied cell
        with positive measure and stays inside the world bounds."""
        if inflation < 0:
            raise ValueError("inflation must be non-negative")
        lo = [v - inflation for v in box.min_corner]
        hi = [v + inflation for v in box.max_corner]
        return self._in_bounds(lo, hi) and self._cells_occupied(*self._cube_cells(lo, hi)) == 0

    def _in_bounds(self, lo, hi) -> bool:
        """points_free's bounds test of the inflated box [lo, hi], on Python
        floats; a NaN corner fails it."""
        for v0, v1, m0, m1 in zip(lo, hi, self.bounds_min.tolist(), self.bounds_max.tolist()):
            if not (v0 >= m0 - _EPS_BOUNDS and v1 <= m1 + _EPS_BOUNDS):
                return False
        return True

    def points_free(self, points, inflation: float) -> np.ndarray:
        """Vectorized box_is_free for point queries (inflated cubes)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        lo = pts - inflation
        hi = pts + inflation
        ok = (lo >= self.bounds_min - _EPS_BOUNDS) & (hi <= self.bounds_max + _EPS_BOUNDS)
        inside = ok[:, 0] & ok[:, 1] & ok[:, 2]
        i0, i1 = self._overlap_range(lo, hi)
        counts = self._count_occupied(i0, i1)
        return inside & (counts == 0)

    def point_is_free(self, point, inflation: float) -> bool:
        return bool(self.points_free(np.asarray(point)[None, :], inflation)[0])

    # -- safe-box growth -----------------------------------------------------

    def grow_free_box(self, seed, inflation: float, toward=None) -> AxisBox:
        """Largest-effort free box around a seed point.

        Starts from the cells covering the inflated seed cube and adds one
        voxel layer per direction round-robin until every direction is
        blocked by an occupied cell or the world border. The default
        direction order is +x, -x, +y, -y, +z, -z; passing `toward` reorders
        it by descending progress along that vector, which lets the box
        thread doorways before sideways growth walls them off. The returned
        box is the grown cell region eroded by the inflation on every face,
        so it always contains the seed and passes box_is_free at the same
        inflation.

        Exact early exit: at the start, and whenever a direction has just
        become blocked, one query counts the region that reaches from the
        current extent to the border in every unblocked direction. Every
        later layer lies inside that region, so if it holds no occupied
        cell, growth would end exactly at it, and the box jumps there. On a
        map without obstacles a box costs one query.
        """
        if inflation < 0:
            raise ValueError("inflation must be non-negative")
        seed = np.asarray(seed, dtype=float).reshape(3)
        # The seed test of point_is_free on box_is_free's scalar path. On a
        # map without obstacles (the summed-area table's last entry counts
        # every occupied cell) the bounds decide it.
        seed_lo = [v - inflation for v in seed.tolist()]
        seed_hi = [v + inflation for v in seed.tolist()]
        free = self._in_bounds(seed_lo, seed_hi)
        if free:
            # The cells [lo, hi) of the seed cube; 0 <= lo <= hi <= dims.
            lo, hi = self._cube_cells(seed_lo, seed_hi)
            free = self._prefix.item(-1, -1, -1) == 0 or self._cells_occupied(lo, hi) == 0
        if not free:
            raise InfeasibleSeedError(
                f"seed {seed.tolist()} is not free under inflation {inflation}"
            )

        order = list(range(6))  # +x, -x, +y, -y, +z, -z
        if toward is not None:
            toward = np.asarray(toward, dtype=float).reshape(3)
            scores = [
                (1.0 if d % 2 == 0 else -1.0) * toward[d // 2] for d in range(6)
            ]
            order.sort(key=lambda d: (-scores[d], d))
        dims = self.dims
        blocked = [False] * 6
        newly_blocked = True
        while not all(blocked):
            if newly_blocked:
                reach_lo = [lo[a] if blocked[2 * a + 1] else 0 for a in range(3)]
                reach_hi = [hi[a] if blocked[2 * a] else dims[a] for a in range(3)]
                if self._cells_occupied(reach_lo, reach_hi) == 0:
                    lo, hi = reach_lo, reach_hi
                    break
                newly_blocked = False
            for d in order:
                if blocked[d]:
                    continue
                axis = d // 2
                new = hi[axis] if d % 2 == 0 else lo[axis] - 1
                layer_lo = lo.copy()
                layer_hi = hi.copy()
                layer_lo[axis] = new
                layer_hi[axis] = new + 1
                if not 0 <= new < dims[axis] or self._cells_occupied(layer_lo, layer_hi) > 0:
                    blocked[d] = newly_blocked = True
                elif d % 2 == 0:
                    hi[axis] = new + 1
                else:
                    lo[axis] = new

        # The region's corners, eroded by the inflation, in Python floats:
        # the same expressions as bounds_min + index * resolution on arrays.
        res = self.resolution
        base = self.bounds_min.tolist()
        return AxisBox(
            tuple(m + i * res + inflation for m, i in zip(base, lo)),
            tuple(m + i * res - inflation for m, i in zip(base, hi)),
        )

    # -- grid search ---------------------------------------------------------
    # The search works on arrays padded by one cell per face: blocked on
    # the padding, and -1 there in a distance field, so neighbour offsets
    # of flat indices never wrap and need no bounds tests. Padded flat
    # indices order cells exactly as unpadded ones do.

    def _padded_blocked(self, inflation: float) -> np.ndarray:
        """Cells whose center, inflated, overlaps an obstacle or leaves the
        bounds, on the padded grid. Cached per inflation value.

        Cell centres vary along one axis each, so points_free's bounds test
        and overlap ranges are computed per axis, on one column of centres
        per axis, and the occupied count is a separable summed-area
        difference: the same values as points_free over every centre.
        """
        key = round(float(inflation), 12)
        mask = self._blocked_cache.get(key)
        if mask is not None:
            return mask
        n = max(self.dims)
        centers = self.bounds_min + (np.arange(n)[:, None] + 0.5) * self.resolution
        lo = centers - inflation
        hi = centers + inflation
        inside = (lo >= self.bounds_min - _EPS_BOUNDS) & (hi <= self.bounds_max + _EPS_BOUNDS)
        a, b = self._clipped_range(*self._overlap_range(lo, hi))
        (nx, ny, nz), p = self.dims, self._prefix
        counts = p[b[:nx, 0]] - p[a[:nx, 0]]
        counts = counts[:, b[:ny, 1]] - counts[:, a[:ny, 1]]
        counts = counts[:, :, b[:nz, 2]] - counts[:, :, a[:nz, 2]]
        mask = np.ones((nx + 2, ny + 2, nz + 2), dtype=bool)
        interior = mask[1:-1, 1:-1, 1:-1]
        np.not_equal(counts, 0, out=interior)
        interior |= ~inside[:nx, 0, None, None]
        interior |= ~inside[None, :ny, 1, None]
        interior |= ~inside[None, None, :nz, 2]
        mask.setflags(write=False)
        self._blocked_cache[key] = mask
        return mask

    def _padded_field(self, goal_idx, inflation: float) -> np.ndarray:
        """Exact 6-connected hop count from every free cell to the goal cell
        (-1 where unreachable), on the padded grid, used as a consistent
        search heuristic. Built by a breadth-first search over flat cell
        indices: each hop visits only the frontier's neighbours. Cached per
        (goal, inflation); goals are fixed for a whole run, so this pays
        once."""
        key = (tuple(goal_idx), round(float(inflation), 12))
        cached = self._field_cache.get(key)
        if cached is not None:
            return cached
        blocked = self._padded_blocked(inflation)
        unseen = ~blocked.reshape(-1)
        dist = np.full(unseen.shape, -1, dtype=np.int32)
        sy = self.dims[2] + 2
        sx = (self.dims[1] + 2) * sy
        offsets = np.array([sx, -sx, sy, -sy, 1, -1])
        goal = (goal_idx[0] + 1) * sx + (goal_idx[1] + 1) * sy + goal_idx[2] + 1
        if unseen[goal]:
            unseen[goal] = False
            dist[goal] = 0
            frontier = np.array([goal])
            slot = np.empty(unseen.shape, dtype=np.intp)
            hops = 0
            while frontier.size:
                hops += 1
                reached = (frontier[:, None] + offsets).reshape(-1)
                reached = reached[unseen[reached]]
                # A cell reached from several frontier cells keeps the one
                # copy whose position its slot holds after the scatter.
                order = np.arange(len(reached))
                slot[reached] = order
                reached = reached[slot[reached] == order]
                unseen[reached] = False
                dist[reached] = hops
                frontier = reached
        dist = dist.reshape(blocked.shape)
        dist.setflags(write=False)
        self._field_cache[key] = dist
        return dist

    def astar(
        self,
        start,
        goal,
        inflation: float,
        agent_obstacles=(),
        budget: int = 120000,
        downwash: float = 1.0,
    ) -> GridPath | None:
        """Shortest 6-connected path between the cells containing start and
        goal, or None.

        Cells whose inflated center overlaps an obstacle are blocked, as are
        cells within inflation + radius of an agent obstacle in the
        downwash-scaled metric (except the start cell, which is always
        traversable); passing the same downwash as the line-of-sight queries
        keeps paths inside the region sight checks can actually certify.
        Costs are uniform and the heuristic is the exact obstacle-aware hop
        count to the goal (a cached breadth-first field), which is
        consistent, prunes statically unreachable cells outright, and keeps
        expansions near the optimal corridor even around walls. Ties pop
        lowest heuristic first, then lowest flat cell index, so results are
        deterministic. Searches exceeding `budget` expansions return None.
        """
        blocked = self._padded_blocked(inflation)
        if agent_obstacles:
            blocked = blocked.copy()
            self._block_discs(blocked, agent_obstacles, inflation, downwash)
        start_idx = self.voxel_index(start)
        goal_idx = self.voxel_index(goal)
        start_cell = tuple(i + 1 for i in start_idx)
        if blocked[start_cell]:
            # The caller guarantees the start position itself is free; its
            # cell center may still fail the conservative test or sit inside
            # another agent's disc, so keep the search startable.
            if not blocked.flags.writeable:
                blocked = blocked.copy()
            blocked[start_cell] = False
        if blocked[tuple(i + 1 for i in goal_idx)]:
            return None

        field_grid = self._padded_field(goal_idx, inflation)
        sy = self.dims[2] + 2
        sx = (self.dims[1] + 2) * sy
        # memoryviews hand out Python ints and bools, which the heap and
        # the comparisons below handle far faster than numpy scalars.
        field = memoryview(field_grid.reshape(-1))
        closed = memoryview(blocked.reshape(-1))
        start_flat = (start_idx[0] + 1) * sx + (start_idx[1] + 1) * sy + start_idx[2] + 1
        goal_flat = (goal_idx[0] + 1) * sx + (goal_idx[1] + 1) * sy + goal_idx[2] + 1

        # The start cell may be force-unblocked with no field value; 0 is
        # admissible there. Everywhere else a negative field means the goal
        # is statically unreachable from that cell, so it cannot help.
        steps = (sx, -sx, sy, -sy, 1, -1)
        h0 = field[start_flat]
        if h0 < 0:
            h0 = 0
            if not any(field[start_flat + df] >= 0 for df in steps):
                return None

        g = {start_flat: 0}
        parent = {}
        heap = [(h0, h0, start_flat)]
        pops = 0
        while heap:
            f, hv, flat = heapq.heappop(heap)
            gv = f - hv
            if gv > g[flat]:
                continue
            if flat == goal_flat:
                return self._reconstruct(parent, start_flat, goal_flat, field_grid.shape)
            pops += 1
            if pops > budget:
                return None
            ng = gv + 1
            for df in steps:
                nflat = flat + df
                nh = field[nflat]
                if nh < 0 or closed[nflat]:
                    continue
                if ng < g.get(nflat, ng + 1):
                    g[nflat] = ng
                    parent[nflat] = flat
                    heapq.heappush(heap, (ng + nh, nh, nflat))
        return None

    def _block_discs(self, blocked: np.ndarray, agent_obstacles, inflation, downwash):
        """Mark, in the padded mask, every cell whose centre lies within
        inflation + radius of an agent obstacle in the downwash-scaled
        metric (z differences count 1/downwash).

        All discs are marked in one pass over equal windows, one per disc,
        sized to the largest clipped cell range among them; the cells of a
        window outside its own disc's range are dropped. Distances use the
        float expressions of a per-disc scan, so the mask is the same.
        """
        pos = np.array([p for p, _ in agent_obstacles], dtype=float).reshape(-1, 3)
        radius = inflation + np.array([r for _, r in agent_obstacles], dtype=float)
        reach = radius[:, None] * np.array([1.0, 1.0, downwash])
        lo, hi = self._overlap_range(pos - reach, pos + reach)
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, np.array(self.dims) - 1)
        width = np.maximum(np.max(hi - lo, axis=0) + 1, 0)
        cells, inside, offsets = [], [], []
        for a in range(3):
            idx = lo[:, a, None] + np.arange(width[a])  # (discs, width)
            inside.append(idx <= hi[:, a, None])
            offsets.append(self.bounds_min[a] + (idx + 0.5) * self.resolution - pos[:, a, None])
            cells.append(idx + 1)
        d2 = (
            offsets[0][:, :, None, None] ** 2
            + offsets[1][:, None, :, None] ** 2
            + (offsets[2][:, None, None, :] / downwash) ** 2
        )
        hit = (
            (d2 <= (radius * radius)[:, None, None, None])
            & inside[0][:, :, None, None]
            & inside[1][:, None, :, None]
            & inside[2][:, None, None, :]
        )
        sy = self.dims[2] + 2
        sx = (self.dims[1] + 2) * sy
        flat = (
            (cells[0] * sx)[:, :, None, None]
            + (cells[1] * sy)[:, None, :, None]
            + cells[2][:, None, None, :]
        )
        blocked.reshape(-1)[flat[hit]] = True

    def _reconstruct(self, parent, start_flat, goal_flat, shape) -> GridPath:
        chain = [goal_flat]
        while chain[-1] != start_flat:
            chain.append(parent[chain[-1]])
        chain.reverse()
        cells = np.array(np.unravel_index(chain, shape), dtype=float).T - 1
        return GridPath(self.bounds_min + (cells + 0.5) * self.resolution)

    # -- line of sight -------------------------------------------------------

    def line_of_sight_free(
        self, p, q, inflation: float, agent_obstacles=(), downwash: float = 1.0
    ) -> bool:
        """True iff the segment pq, sampled every resolution/2, stays free
        under inflation and clear of every agent obstacle by more than
        inflation + its radius in the downwash-scaled metric."""
        q = np.asarray(q, dtype=float).reshape(1, 3)
        return bool(self.sight_lines_free(p, q, inflation, agent_obstacles, downwash)[0])

    def sight_lines_free(
        self, p, targets, inflation: float, agent_obstacles=(), downwash: float = 1.0
    ) -> np.ndarray:
        """line_of_sight_free from p to each target, as one bool per target.

        Every sight line's samples are built at once. Most lines of a scan
        fail, so with several targets every 8th sample is tested first, then
        the rest of the lines that passed; a line is clear iff all its
        samples pass either way.
        """
        samples, starts = self._sight_samples(p, targets)
        counts = np.diff(starts, append=len(samples))

        def clear(rows):
            points = samples[rows]
            ok = self.points_free(points, inflation)
            # np.linalg.norm(gap, axis=1) sums the squares left to right;
            # the 1.0 scale factors of x and y are left out, as exact.
            x, y, z = points.T
            for pos, radius in agent_obstacles:
                pos = np.asarray(pos, dtype=float)
                gx = x - pos[0]
                gy = y - pos[1]
                gz = (z - pos[2]) * (1.0 / downwash)
                ok &= ~(np.sqrt(gx * gx + gy * gy + gz * gz) <= inflation + radius)
            return ok

        stride = _COARSE if len(starts) > 1 else 1
        ok = np.ones(len(samples), dtype=bool)
        ok[::stride] = clear(slice(None, None, stride))
        rest = np.repeat(np.logical_and.reduceat(ok, starts), counts)
        rest[::stride] = False
        rest = np.flatnonzero(rest)
        if rest.size:
            ok[rest] = clear(rest)
        return np.logical_and.reduceat(ok, starts)

    def _sight_samples(self, p, targets) -> tuple[np.ndarray, np.ndarray]:
        """Samples of every segment p-q, stacked, and each segment's first
        row. Segment q gets count = ceil(|q - p| / (resolution/2)) + 1
        samples (at least 2, or 1 when q == p), bit for bit the points
        np.linspace(p, q, count) returns."""
        p = np.asarray(p, dtype=float).reshape(3)
        targets = np.asarray(targets, dtype=float).reshape(-1, 3)
        delta = targets - p
        # np.linalg.norm of one vector is sqrt(v.dot(v)); vecdot takes the
        # same dot product row by row.
        dist = np.sqrt(np.vecdot(delta, delta))
        counts = np.where(
            dist > 0,
            np.maximum(2, np.ceil(dist / (self.resolution / 2)).astype(int) + 1),
            1,
        )
        starts = np.cumsum(counts) - counts
        line = np.repeat(np.arange(len(counts)), counts)
        k = (np.arange(counts.sum()) - starts[line]).astype(float)[:, None]
        # linspace's arithmetic: k * step, or (k / div) * delta on a line
        # with a zero step component, then + p, and the last sample is q.
        # A single sample is 0 * delta + p, which div = 1 reproduces.
        div = np.maximum(counts - 1, 1).astype(float)[:, None]
        step = delta / div
        samples = k * step[line]
        zero_step = np.flatnonzero(np.any(step == 0, axis=1)[line])
        if zero_step.size:
            rows = line[zero_step]
            samples[zero_step] = (k[zero_step] / div[rows]) * delta[rows]
        samples += p
        ends = counts > 1
        samples[(starts + counts - 1)[ends]] = targets[ends]
        return samples, starts
