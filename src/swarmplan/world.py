"""Static environment: voxel occupancy grid and free-space queries.

The world is a uniform voxel grid over an axis-aligned bounding box. A voxel
is occupied iff its closed cell intersects any obstacle box. Free-space
queries inflate the query shape by an axis-aligned margin (the bounding cube
of the agent sphere), which is conservative and never unsafe. Occupied-cell
counting goes through a 3-D summed-area table, so box tests cost O(1).

The hot queries are written for speed and return exactly what the plain
formulations in tests/oracles.py return: box growth and box tests read
eight summed-area corners as Python ints, and growth takes at once the
rounds whose layers one query shows free; the blocked mask of a search is
computed axis by axis (cell centres vary along one axis each); goal
distance fields are a breadth-first search over flat indices of a padded
grid, on which A* runs without bounds tests; and a sight line is decided
from its exact distance to each agent disc and one summed-area query over
its bounding box, so only the lines left undecided are sampled, bit for bit
as np.linspace samples them. Queries reject a negative or non-finite
inflation and non-finite points, which would compare false against every
threshold or cast to no cell index.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from swarmplan.errors import InfeasibleSeedError

_EPS_CELLS = 1e-9  # index-space slack for exact-boundary decisions
_EPS_BOUNDS = 1e-9  # meters of slack on world-bounds containment
_EPS_LINE = 1e-9  # meters of slack on closed-form sight-line decisions
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


class OccupancyGrid:
    """Voxelized static world with conservative inflated free-space queries."""

    def __init__(self, resolution, bounds_min, bounds_max, occupied=None):
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
        for box in raw_boxes:
            lo = np.asarray(box["min"], dtype=float).reshape(3)
            hi = np.asarray(box["max"], dtype=float).reshape(3)
            if np.any(hi < lo):
                raise ValueError("obstacle box has min > max")
            rel_lo = (lo - bmin) / resolution
            rel_hi = (hi - bmin) / resolution
            i0 = [max(0, math.ceil(rel_lo[a] - 1 - _EPS_CELLS)) for a in range(3)]
            i1 = [min(dims[a] - 1, math.floor(rel_hi[a] + _EPS_CELLS)) for a in range(3)]
            if all(i0[a] <= i1[a] for a in range(3)):
                occupied[i0[0] : i1[0] + 1, i0[1] : i1[1] + 1, i0[2] : i1[2] + 1] = True
        return cls(resolution, bmin, bmax, occupied)

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
        _check_inflation(inflation)
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
        _check_inflation(inflation)
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
        so it passes box_is_free at the same inflation and contains the
        seed, except that a seed inside the 1e-9 slack beyond the world
        bounds is contained only to 1e-9: the box is clipped to the bounds
        (advance_corridor's 1e-9 containment tolerance absorbs this).

        Rounds are skipped, not tested, where the answer is known. At the
        start of each round, with U the open directions:

        - Reach. One query counts the region that reaches from the current
          extent to the border in every direction of U. Every later layer
          lies inside it, so if it holds no occupied cell, growth would end
          exactly at it, and the box jumps there. On a map without
          obstacles a box costs one query.
        - Gallop. Otherwise, with room the fewest cells left to the border
          in any direction of U, find the largest j <= room for which the
          box widened by j layers in every direction of U holds no occupied
          cell, by doubling, then bisection. The next j rounds would each
          add one free layer in every direction of U, all inside that
          region, so the box takes them at once. One ordinary round
          follows, in the direction order. It blocks at least one
          direction: were every layer it tests free and inside the grid,
          the box widened by j + 1 would be, which is occupied or leaves
          the grid.

        Each box is the one that growing layer by layer gives (the referee
        is tests/oracles.py:grow_box_by_layers).
        """
        _check_inflation(inflation)
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

        def widened(j):
            """The box widened by j layers in every open direction."""
            return (
                [lo[a] if blocked[2 * a + 1] else lo[a] - j for a in range(3)],
                [hi[a] if blocked[2 * a] else hi[a] + j for a in range(3)],
            )

        while not all(blocked):
            reach_lo = [lo[a] if blocked[2 * a + 1] else 0 for a in range(3)]
            reach_hi = [hi[a] if blocked[2 * a] else dims[a] for a in range(3)]
            if self._cells_occupied(reach_lo, reach_hi) == 0:
                lo, hi = reach_lo, reach_hi
                break
            room = min(
                dims[d // 2] - hi[d // 2] if d % 2 == 0 else lo[d // 2]
                for d in range(6)
                if not blocked[d]
            )
            good, bad = 0, 1
            while bad <= room and self._cells_occupied(*widened(bad)) == 0:
                good, bad = bad, 2 * bad
            bad = min(bad, room + 1)
            while bad - good > 1:
                mid = (good + bad) // 2
                if self._cells_occupied(*widened(mid)) == 0:
                    good = mid
                else:
                    bad = mid
            lo, hi = widened(good)
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
                    blocked[d] = True
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
        once, and a run keeps one field per agent. The field is int16 when
        its farthest hop is at most 32,767 and int32 otherwise; A* reads
        either as the same Python ints."""
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
        if dist.max() <= np.iinfo(np.int16).max:
            dist = dist.astype(np.int16)
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
    ) -> np.ndarray | None:
        """Shortest 6-connected path between the cells containing start and
        goal, as its voxel-center waypoints (L, 3), read-only, or None.

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
        _check_inflation(inflation)
        if not (np.isfinite(start).all() and np.isfinite(goal).all()):
            raise ValueError("search endpoints must be finite")
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

    def _reconstruct(self, parent, start_flat, goal_flat, shape) -> np.ndarray:
        chain = [goal_flat]
        while chain[-1] != start_flat:
            chain.append(parent[chain[-1]])
        chain.reverse()
        cells = np.array(np.unravel_index(chain, shape), dtype=float).T - 1
        waypoints = self.bounds_min + (cells + 0.5) * self.resolution
        waypoints.setflags(write=False)
        return waypoints

    # -- line of sight -------------------------------------------------------

    def line_of_sight_free(
        self, p, q, inflation: float, agent_obstacles=(), downwash: float = 1.0
    ) -> bool:
        """True iff the segment pq, sampled every resolution/2, stays free
        under inflation and clear of every agent obstacle by more than
        inflation + its radius in the downwash-scaled metric.

        sight_lines_free for one target, on Python floats, as numpy's
        per-call cost would dominate. The static rule is the same. A disc
        whose distance d to the segment is below reach - h/2 - 1e-9 blocks
        the line outright, h being the spacing of samples in the scaled
        metric, since the sample nearest the closest point lies within
        d + h/2. h comes from a sample count rounded down near a whole
        number, so it is never below the true spacing: math's sum of
        squares and np.vecdot's can differ in the last bit. Only a line
        these rules leave undecided is sampled.
        """
        _check_inflation(inflation)
        p = np.asarray(p, dtype=float).reshape(3)
        q = np.asarray(q, dtype=float).reshape(3)
        px, py, pz = p.tolist()
        qx, qy, qz = q.tolist()
        if not all(math.isfinite(v) for v in (px, py, pz, qx, qy, qz)):
            raise ValueError("sight line endpoints must be finite")
        scale = 1.0 / downwash
        ux, uy, uz = qx - px, qy - py, (qz - pz) * scale
        uu = ux * ux + uy * uy + uz * uz
        dist = math.sqrt((qx - px) ** 2 + (qy - py) ** 2 + (qz - pz) ** 2)
        half = 0.0
        if dist > 0:
            count = max(2, math.ceil(dist / (self.resolution / 2) - _EPS_LINE) + 1)
            half = math.sqrt(uu) / (count - 1) / 2
        grazing = []
        for pos, radius in agent_obstacles:
            cx, cy, cz = np.asarray(pos, dtype=float).tolist()
            wx, wy, wz = cx - px, cy - py, (cz - pz) * scale
            t = min(max((wx * ux + wy * uy + wz * uz) / uu, 0.0), 1.0) if uu > 0 else 0.0
            dx, dy, dz = wx - t * ux, wy - t * uy, wz - t * uz
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            reach = inflation + radius
            if d < reach - half - _EPS_LINE:
                return False
            if not d > reach + _EPS_LINE:
                grazing.append((pos, radius))
        if not grazing:
            ends = list(zip((px, py, pz), (qx, qy, qz)))
            lo = [min(a, b) - inflation - _EPS_LINE for a, b in ends]
            hi = [max(a, b) + inflation + _EPS_LINE for a, b in ends]
            if self._in_bounds(lo, hi) and self._cells_occupied(*self._cube_cells(lo, hi)) == 0:
                return True
        return bool(self._sampled_lines_free(p, q[None], inflation, grazing, downwash)[0])

    def sight_lines_free(
        self, p, targets, inflation: float, agent_obstacles=(), downwash: float = 1.0
    ) -> np.ndarray:
        """line_of_sight_free from p to each target, as one bool per target:
        bit for bit what sampling every line returns (the referee is
        tests/oracles.py:sight_lines_by_samples).

        Each line is decided before it is sampled. The line to q has
        _sample_counts samples, p and q exactly among them, evenly spaced
        in parameter. Each is the point of the segment at its parameter up
        to coordinate rounding of about 1e-14 m on maps under 20 m, and
        every decision below keeps a margin of 1e-9 m against it. Distances
        are in the downwash-scaled metric, and reach = inflation + radius:

        - Discs. d is the exact distance from an agent's centre to the
          segment. If d > reach + 1e-9, no sample comes within reach.
          Otherwise the two samples that bracket the segment's closest
          point are built and measured as sampled lines measure them. The
          squared distance along the line is a quadratic symmetric about
          the closest point, so one of the two is the nearest sample: if
          one is within reach, the line is blocked, and if both are beyond
          reach + 1e-9, so is every sample. Otherwise the disc grazes the
          line.
        - Static. Every sample's inflated cube lies inside the box
          [min(p, q) - inflation - 1e-9, max(p, q) + inflation + 1e-9]. If
          that box is in bounds and free, every sample passes points_free,
          since the bounds test is a comparison and the cell ranges are
          monotone in the corners.

        A line no disc blocks is clear when no disc grazes it and its static
        box is free. Only the lines left undecided are sampled, against the
        discs that graze any of them; a line's samples do not depend on the
        other lines. Lines and discs are decided as (lines x discs) arrays,
        and the static boxes by one summed-area query.
        """
        _check_inflation(inflation)
        p = np.asarray(p, dtype=float).reshape(3)
        targets = np.asarray(targets, dtype=float).reshape(-1, 3)
        if not (np.isfinite(p).all() and np.isfinite(targets).all()):
            raise ValueError("sight line endpoints must be finite")
        delta = targets - p
        counts = self._sample_counts(delta)
        lo = np.minimum(p, targets) - inflation - _EPS_LINE
        hi = np.maximum(p, targets) + inflation + _EPS_LINE
        inside = (lo >= self.bounds_min - _EPS_BOUNDS) & (hi <= self.bounds_max + _EPS_BOUNDS)
        clear = inside.all(axis=1) & (self._count_occupied(*self._overlap_range(lo, hi)) == 0)
        undecided = ~clear
        grazing = []
        if agent_obstacles:
            centres = np.array([c for c, _ in agent_obstacles], dtype=float).reshape(-1, 3)
            reach = inflation + np.array([r for _, r in agent_obstacles], dtype=float)
            scale = np.array([1.0, 1.0, 1.0 / downwash])
            u = delta * scale  # (lines, 3)
            w = (centres - p) * scale  # (discs, 3)
            uu = np.vecdot(u, u)[:, None]
            t = np.divide(u @ w.T, uu, out=np.zeros((len(u), len(w))), where=uu > 0)
            np.clip(t, 0.0, 1.0, out=t)
            gap = w - t[:, :, None] * u[:, None, :]
            near = ~(np.sqrt(np.vecdot(gap, gap)) > reach + _EPS_LINE)  # (lines, discs)
            line, disc = np.nonzero(near)
            if line.size:
                last = counts[line] - 1
                k = np.minimum(np.floor(t[line, disc] * last).astype(int), np.maximum(last - 1, 0))
                both = np.concatenate([line, line]), np.concatenate([k, np.minimum(k + 1, last)])
                x, y, z = self._line_samples(p, targets, counts, *both).T
                c = centres[np.concatenate([disc, disc])]
                gx, gy, gz = x - c[:, 0], y - c[:, 1], (z - c[:, 2]) * (1.0 / downwash)
                nearest = np.minimum(*np.sqrt(gx * gx + gy * gy + gz * gz).reshape(2, -1))
                blocked = np.zeros(len(targets), dtype=bool)
                blocked[line[nearest <= reach[disc]]] = True
                near[line, disc] = ~(nearest > reach[disc] + _EPS_LINE)
                near[blocked] = False
                grazed = near.any(axis=1)
                clear &= ~(blocked | grazed)
                undecided = (undecided | grazed) & ~blocked
                grazing = [agent_obstacles[j] for j in np.flatnonzero(near.any(axis=0))]
        rows = np.flatnonzero(undecided)
        if rows.size:
            clear[rows] = self._sampled_lines_free(p, targets[rows], inflation, grazing, downwash)
        return clear

    def _sampled_lines_free(self, p, targets, inflation, agent_obstacles, downwash):
        """Each line from p tested at its samples: every sample passes
        points_free and lies farther than inflation + radius from every
        agent obstacle in the downwash-scaled metric. Sampled lines mostly
        fail, so every 8th sample of each line (k = 0, 8, 16, ...) is built
        and tested first, then the other samples of the lines that passed.
        A line with no other sample keeps its first verdict."""
        p = np.asarray(p, dtype=float).reshape(3)
        counts = self._sample_counts(targets - p)
        coarse = (counts + _COARSE - 1) // _COARSE
        clear = np.ones(len(targets), dtype=bool)
        for fine in (False, True):
            per_line = counts - coarse if fine else coarse
            rows = np.flatnonzero(clear & (per_line > 0))
            if not rows.size:
                break
            per_line = per_line[rows]
            starts = np.cumsum(per_line) - per_line
            line = np.repeat(rows, per_line)
            j = np.arange(per_line.sum()) - np.repeat(starts, per_line)
            # The j-th fine sample skips the multiples of _COARSE below it.
            k = j + j // (_COARSE - 1) + 1 if fine else j * _COARSE
            points = self._line_samples(p, targets, counts, line, k)
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
            clear[rows] = np.logical_and.reduceat(ok, starts)
        return clear

    def _sample_counts(self, delta) -> np.ndarray:
        """Samples of each segment p to p + delta: ceil(|delta| /
        (resolution/2)) + 1, at least 2, or 1 when delta is zero."""
        # np.linalg.norm of one vector is sqrt(v.dot(v)); vecdot takes the
        # same dot product row by row.
        dist = np.sqrt(np.vecdot(delta, delta))
        return np.where(
            dist > 0,
            np.maximum(2, np.ceil(dist / (self.resolution / 2)).astype(int) + 1),
            1,
        )

    def _line_samples(self, p, targets, counts, line, k) -> np.ndarray:
        """Sample k[i] of the segment from p to targets[line[i]] with
        counts[line[i]] samples, bit for bit what np.linspace returns."""
        delta = targets - p
        # linspace's arithmetic: k * step, or (k / div) * delta on a line
        # with a zero step component, then + p, and the last sample is q.
        # A single sample is 0 * delta + p, which div = 1 reproduces.
        div = np.maximum(counts - 1, 1).astype(float)[:, None]
        step = delta / div
        k = k.astype(float)[:, None]
        samples = k * step[line]
        zero_step = np.flatnonzero(np.any(step == 0, axis=1)[line])
        if zero_step.size:
            rows = line[zero_step]
            samples[zero_step] = (k[zero_step] / div[rows]) * delta[rows]
        samples += p
        last = np.flatnonzero((k[:, 0] == div[line, 0]) & (counts[line] > 1))
        samples[last] = targets[line[last]]
        return samples


def _check_inflation(inflation: float) -> None:
    if not 0 <= inflation < math.inf:
        raise ValueError("inflation must be non-negative and finite")
