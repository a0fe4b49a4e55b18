"""Compiled CSR road graph — the flat-array kernel under the road layer.

:class:`~repro.roadnet.network.RoadNetwork` is built incrementally out of
dataclasses and dict-of-lists adjacency, which is the right shape for
construction and serialization but the wrong shape for the hot loops that sit
on top of it: trajectory generation runs one Dijkstra per trip, map matching
projects every GPS point onto candidate segments, and the models need the
successor structure of every segment at every decoding step.

:class:`CompiledRoadGraph` freezes a finished network into numpy arrays once:

* **segment geometry** — endpoint / midpoint coordinate arrays, direction
  vectors, squared lengths — so point-to-segment projection is a handful of
  vectorised ufuncs instead of a Python loop over ``Point`` dataclasses;
* **node-graph CSR** — per-intersection outgoing segments as flat arrays plus
  plain-Python adjacency lists (``(neighbour, segment, …)`` tuples) that the
  Dijkstra heap loop iterates without any numpy scalar boxing or dataclass
  attribute lookups;
* **segment-graph CSR** — ``succ_indptr`` / ``succ_indices`` successor sets
  (ascending within each row) from which the padded successor gather tables
  and, only on demand, the dense ``(V, V)`` transition mask are derived.
  Every model and serving path consumes the CSR form; the dense mask is a
  view for inspection and for the tests' parity oracles;
* **uniform-grid spatial index** — nearest-segment candidate queries expand
  cell rings until the current k-th best cost is provably unbeatable, so a
  query touches a few dozen grid-local segments instead of the whole city.

Compilation is cached on the network (see :meth:`RoadNetwork.compiled
<repro.roadnet.network.RoadNetwork.compiled>`) and invalidated on mutation.

This is the library's only road-graph implementation.  The dict/dataclass
routines it replaced — heap Dijkstra over ``out_segments``, the exhaustive
nearest-segment scan and the dict Viterbi matcher — live on as parity oracles
in ``tests/roadnet_reference.py``, and every routine here reproduces them
bit-for-bit (same operand order, same tie-breaking): the parity suite
``tests/roadnet/test_csr_graph.py`` and the benchmark gate
``benchmarks/test_bench_roadnet_pipeline.py`` enforce it.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.arrays import pad_ragged_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network imports us lazily)
    from repro.roadnet.network import RoadNetwork

try:  # scipy ships with the toolchain but stays optional — gate, don't require.
    from scipy.sparse import csr_matrix as _scipy_csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised only on scipy-less installs
    _HAVE_SCIPY = False

__all__ = [
    "CompiledRoadGraph",
    "UniformGridIndex",
    "compile_road_graph",
    "csr_dijkstra",
    "csr_dijkstra_batched",
]

_INF = math.inf

#: Accepted ``weights`` forms for the CSR Dijkstra routines.
WeightsLike = Union[np.ndarray, Sequence[float], None]


class UniformGridIndex:
    """Uniform-grid spatial index over road segments.

    Every segment is registered into each grid cell its axis-aligned bounding
    box overlaps, so a segment is discoverable from any cell it passes
    through.  Queries walk Chebyshev rings of cells outward from the query
    point; once all cells within ring ``ρ`` are examined, any unseen segment
    lies at Euclidean distance ``> ρ · cell_size`` — the guarantee the
    nearest-segment search uses to stop early.
    """

    def __init__(
        self,
        start_xy: np.ndarray,
        end_xy: np.ndarray,
        cell_size: Optional[float] = None,
    ) -> None:
        num_segments = int(start_xy.shape[0])
        self.num_segments = num_segments
        self._block_cache: Dict[int, np.ndarray] = {}
        if num_segments == 0:
            self.cell_size = 1.0
            self.origin = (0.0, 0.0)
            self.nx = self.ny = 1
            self._indptr = np.zeros(2, dtype=np.int64)
            self._cell_segments = np.zeros(0, dtype=np.int64)
            return

        min_xy = np.minimum(start_xy, end_xy)
        max_xy = np.maximum(start_xy, end_xy)
        lo = min_xy.min(axis=0)
        hi = max_xy.max(axis=0)
        if cell_size is None:
            # Aim for a handful of segments per cell: the mean geometric
            # segment length keeps ring-0 hits likely, the bbox-derived floor
            # guards against degenerate (collinear / tiny) networks.
            mean_len = float(np.hypot(end_xy[:, 0] - start_xy[:, 0], end_xy[:, 1] - start_xy[:, 1]).mean())
            extent = float(max(hi[0] - lo[0], hi[1] - lo[1]))
            cell_size = max(mean_len, extent / max(int(math.sqrt(num_segments)), 1), 1e-9)
        self.cell_size = float(cell_size)
        self.origin = (float(lo[0]), float(lo[1]))
        self.nx = max(int((hi[0] - lo[0]) / self.cell_size) + 1, 1)
        self.ny = max(int((hi[1] - lo[1]) / self.cell_size) + 1, 1)

        cx0 = self._cell_coord(min_xy[:, 0], self.origin[0], self.nx)
        cx1 = self._cell_coord(max_xy[:, 0], self.origin[0], self.nx)
        cy0 = self._cell_coord(min_xy[:, 1], self.origin[1], self.ny)
        cy1 = self._cell_coord(max_xy[:, 1], self.origin[1], self.ny)
        widths = cx1 - cx0 + 1
        counts = widths * (cy1 - cy0 + 1)
        total = int(counts.sum())
        seg_of_entry = np.repeat(np.arange(num_segments, dtype=np.int64), counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        w = widths[seg_of_entry]
        cell_x = cx0[seg_of_entry] + offsets % w
        cell_y = cy0[seg_of_entry] + offsets // w
        cell_id = cell_y * self.nx + cell_x
        order = np.argsort(cell_id, kind="stable")
        self._cell_segments = seg_of_entry[order]
        cell_counts = np.bincount(cell_id, minlength=self.nx * self.ny)
        self._indptr = np.concatenate([[0], np.cumsum(cell_counts)]).astype(np.int64)

    def _cell_coord(self, values: np.ndarray, origin: float, limit: int) -> np.ndarray:
        idx = ((values - origin) / self.cell_size).astype(np.int64)
        return np.clip(idx, 0, limit - 1)

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """Grid cell ``(cx, cy)`` containing the point ``(x, y)``.

        Points outside the indexed bounding box are clipped to the nearest
        border cell, so every query point maps to a valid cell.
        """
        cx = min(max(int((x - self.origin[0]) / self.cell_size), 0), self.nx - 1)
        cy = min(max(int((y - self.origin[1]) / self.cell_size), 0), self.ny - 1)
        return cx, cy

    def cell_ids(self, points: np.ndarray) -> np.ndarray:
        """Flat cell indices of many points at once.

        Parameters
        ----------
        points:
            ``(N, 2)`` array of ``(x, y)`` coordinates.

        Returns
        -------
        ``(N,)`` int64 array of flattened cell ids (``cy * nx + cx``),
        clipped to the index bounds like :meth:`cell_of`.
        """
        cx = self._cell_coord(points[:, 0], self.origin[0], self.nx)
        cy = self._cell_coord(points[:, 1], self.origin[1], self.ny)
        return cy * self.nx + cx

    def block_segments(self, cell: int) -> np.ndarray:
        """Unique segments of the 3×3 cell block around ``cell`` (cached).

        The block covers Chebyshev rings 0 and 1, so any segment *not* in it
        lies at Euclidean distance ``> cell_size`` from every point of the
        centre cell — the fast-path guarantee of the grouped nearest-segment
        query.
        """
        cached = self._block_cache.get(cell)
        if cached is not None:
            return cached
        cy, cx = divmod(cell, self.nx)
        parts: List[np.ndarray] = []
        for yy in range(max(cy - 1, 0), min(cy + 1, self.ny - 1) + 1):
            for xx in range(max(cx - 1, 0), min(cx + 1, self.nx - 1) + 1):
                neighbour = yy * self.nx + xx
                lo, hi = self._indptr[neighbour], self._indptr[neighbour + 1]
                if hi > lo:
                    parts.append(self._cell_segments[lo:hi])
        block = (
            np.unique(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
        )
        self._block_cache[cell] = block
        return block

    def max_ring(self, cx: int, cy: int) -> int:
        """Largest Chebyshev ring around ``(cx, cy)`` still inside the grid.

        Iterating rings ``0 .. max_ring`` therefore visits every cell of the
        index exactly once — the termination bound of the expanding
        nearest-segment search.
        """
        return max(cx, self.nx - 1 - cx, cy, self.ny - 1 - cy)

    def ring_segments(self, cx: int, cy: int, ring: int) -> np.ndarray:
        """Segment ids registered in cells at Chebyshev distance exactly ``ring``.

        Returns a 1-D int64 array; may contain duplicates (a segment can span
        several cells of the ring) and is empty when the ring lies entirely
        outside the grid.
        """
        if ring == 0:
            cell = cy * self.nx + cx
            return self._cell_segments[self._indptr[cell] : self._indptr[cell + 1]]
        parts: List[np.ndarray] = []
        x0, x1 = cx - ring, cx + ring
        y0, y1 = cy - ring, cy + ring
        for yy in range(max(y0, 0), min(y1, self.ny - 1) + 1):
            if yy == y0 or yy == y1:
                xs = range(max(x0, 0), min(x1, self.nx - 1) + 1)
            else:
                xs = [x for x in (x0, x1) if 0 <= x < self.nx]
            for xx in xs:
                cell = yy * self.nx + xx
                lo, hi = self._indptr[cell], self._indptr[cell + 1]
                if hi > lo:
                    parts.append(self._cell_segments[lo:hi])
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)


class CompiledRoadGraph:
    """A :class:`RoadNetwork` frozen into CSR numpy arrays.

    Attributes (all read-only by convention)
    ----------------------------------------
    node_ids:
        ``(N,)`` intersection ids in ascending order; ``node_index`` maps back.
    node_xy:
        ``(N, 2)`` intersection coordinates.
    seg_start / seg_end:
        ``(E,)`` node *indices* (not ids) of every segment's endpoints.
    seg_start_xy / seg_end_xy / seg_midpoint_xy:
        ``(E, 2)`` segment endpoint and midpoint coordinates.
    seg_dxy / seg_len_sq / seg_geom_norm:
        Direction vectors, squared geometric lengths and geometric norms used
        by vectorised point-to-segment projection.
    seg_length / seg_speed / seg_travel_time:
        Per-segment attribute arrays (``length`` may be custom, hence distinct
        from the geometric norm).
    succ_indptr / succ_indices:
        Segment-graph CSR: successors of segment ``i`` are
        ``succ_indices[succ_indptr[i]:succ_indptr[i+1]]``, ascending.

    Segment ids index every per-segment array directly; they are
    ``0..E-1`` because :meth:`RoadNetwork.add_segment` hands them out in
    order.
    """

    def __init__(self, network: "RoadNetwork") -> None:
        self.network = network
        nodes = network.intersections()
        segments = network.segments()
        self.num_nodes = len(nodes)
        self.num_segments = len(segments)

        self.node_ids = np.array([n.node_id for n in nodes], dtype=np.int64)
        self.node_xy = np.array(
            [(n.location.x, n.location.y) for n in nodes], dtype=np.float64
        ).reshape(self.num_nodes, 2)
        self.node_index: Dict[int, int] = {int(nid): i for i, nid in enumerate(self.node_ids)}

        self.seg_start = np.array([self.node_index[s.start_node] for s in segments], dtype=np.int64)
        self.seg_end = np.array([self.node_index[s.end_node] for s in segments], dtype=np.int64)
        self.seg_start_xy = self.node_xy[self.seg_start].reshape(self.num_segments, 2)
        self.seg_end_xy = self.node_xy[self.seg_end].reshape(self.num_segments, 2)
        self.seg_midpoint_xy = (self.seg_start_xy + self.seg_end_xy) / 2.0
        self.seg_dxy = self.seg_end_xy - self.seg_start_xy
        self.seg_len_sq = self.seg_dxy[:, 0] * self.seg_dxy[:, 0] + self.seg_dxy[:, 1] * self.seg_dxy[:, 1]
        self.seg_geom_norm = np.hypot(self.seg_dxy[:, 0], self.seg_dxy[:, 1])
        self.seg_length = np.array([s.length for s in segments], dtype=np.float64)
        self.seg_speed = np.array([s.speed_limit for s in segments], dtype=np.float64)
        self.seg_travel_time = np.array([s.travel_time for s in segments], dtype=np.float64)

        # Node-graph adjacency.  The numpy CSR form serves vectorised
        # consumers; the plain-Python list form (tuples of ints/floats) is
        # what the Dijkstra heap loop iterates — it preserves the network's
        # segment *insertion order* so relaxation order, and therefore
        # tie-breaking, matches the dict-based reference implementation.
        out_lists: List[List[Tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        for node in nodes:
            entries = out_lists[self.node_index[node.node_id]]
            for sid in network.out_segment_ids(node.node_id):
                entries.append((int(self.seg_end[sid]), int(sid)))
        self._out_lists = out_lists

        # Segment-graph CSR with ascending successors: successors of segment
        # i are the out-segments of its end node, sorted by id.
        node_out_sorted: List[np.ndarray] = [
            np.sort(np.array([sid for _, sid in entries], dtype=np.int64))
            for entries in out_lists
        ]
        succ_rows = [node_out_sorted[int(end)] for end in self.seg_end]
        self.succ_indptr = np.concatenate(
            [[0], np.cumsum([len(r) for r in succ_rows])]
        ).astype(np.int64)
        self.succ_indices = (
            np.concatenate(succ_rows) if succ_rows else np.zeros(0, dtype=np.int64)
        ).astype(np.int64)

        self._grid: Optional[UniformGridIndex] = None
        self._succ_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._dense_mask: Optional[np.ndarray] = None
        self._length_weight_list: Optional[List[float]] = None
        self._in_edges: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # successor structure
    # ------------------------------------------------------------------ #
    def successors(self, segment_id: int) -> np.ndarray:
        """Successor segment ids of ``segment_id``.

        Returns a 1-D int64 view into the CSR ``succ_indices`` array, sorted
        ascending; empty for dead-end segments.  O(out-degree), no copy.
        """
        return self.succ_indices[self.succ_indptr[segment_id] : self.succ_indptr[segment_id + 1]]

    def successor_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Padded ``(idx, valid)`` gather tables over the successor sets.

        ``idx[v]`` lists the successors of segment ``v`` in ascending order,
        padding slots repeat the row's first successor, and dead-end rows keep
        ``idx = 0`` with all-False ``valid``.  Built straight from the CSR
        arrays without materialising the dense ``(V, V)`` mask; the test
        oracle in ``tests/reference.py`` that packs them from the dense mask
        agrees bit-for-bit.
        """
        if self._succ_tables is None:
            counts = np.diff(self.succ_indptr)
            rows = np.repeat(np.arange(self.num_segments, dtype=np.int64), counts)
            self._succ_tables = pad_ragged_rows(
                rows, self.succ_indices, counts, self.num_segments
            )
        return self._succ_tables

    def successors_contain(self, segments: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Elementwise membership test ``candidates[i] ∈ successors(segments[i])``.

        Parameters
        ----------
        segments / candidates:
            Integer arrays of broadcast-compatible shapes (e.g. both ``(N,)``,
            or ``segments`` ``(N,)`` against ``candidates`` ``(N,)``).

        Returns
        -------
        Boolean array of the broadcast shape; True where the candidate is a
        valid road-graph transition from the corresponding segment.
        """
        idx, valid = self.successor_tables()
        segments = np.asarray(segments, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        return ((idx[segments] == candidates[..., None]) & valid[segments]).any(axis=-1)

    def transition_mask(self) -> np.ndarray:
        """Dense boolean ``(V, V)`` successor matrix (cached).

        An O(V²) view for inspection and for the tests' parity oracles.  No
        model or serving path reads it: they use :meth:`successor_tables` /
        :attr:`succ_indices`.
        """
        if self._dense_mask is None:
            mask = np.zeros((self.num_segments, self.num_segments), dtype=bool)
            if self.succ_indices.size:
                rows = np.repeat(
                    np.arange(self.num_segments, dtype=np.int64), np.diff(self.succ_indptr)
                )
                mask[rows, self.succ_indices] = True
            self._dense_mask = mask
        return self._dense_mask

    # ------------------------------------------------------------------ #
    # spatial queries
    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> UniformGridIndex:
        """The lazily-built uniform grid over segment bounding boxes."""
        if self._grid is None:
            self._grid = UniformGridIndex(self.seg_start_xy, self.seg_end_xy)
        return self._grid

    def candidate_cost_matrix(
        self,
        points: np.ndarray,
        segment_ids: np.ndarray,
        headings: Optional[np.ndarray] = None,
        heading_weight: float = 0.0,
    ) -> np.ndarray:
        """Match costs (projection distance + heading misalignment).

        ``points`` is ``(g, 2)``, ``segment_ids`` ``(c,)``; returns a
        ``(g, c)`` cost matrix.  Reproduces the arithmetic of the exhaustive
        per-point scan (the ``candidates`` oracle in
        ``tests/roadnet_reference.py``) operation-for-operation, so the
        matcher selects identical candidates.
        """
        sxy = self.seg_start_xy[segment_ids]
        dxy = self.seg_dxy[segment_ids]
        len_sq = self.seg_len_sq[segment_ids]
        px = points[:, 0:1] - sxy[None, :, 0]
        py = points[:, 1:2] - sxy[None, :, 1]
        safe_len = np.where(len_sq == 0.0, 1.0, len_sq)
        t = (px * dxy[None, :, 0] + py * dxy[None, :, 1]) / safe_len
        t = np.clip(t, 0.0, 1.0)
        t = np.where(len_sq == 0.0, 0.0, t)
        proj_x = sxy[None, :, 0] + t * dxy[None, :, 0]
        proj_y = sxy[None, :, 1] + t * dxy[None, :, 1]
        cost = np.hypot(points[:, 0:1] - proj_x, points[:, 1:2] - proj_y)
        if headings is not None and heading_weight != 0.0:
            head_norm = np.hypot(headings[:, 0:1], headings[:, 1:2])
            seg_norm = self.seg_geom_norm[segment_ids][None, :]
            denominator = seg_norm * head_norm
            with np.errstate(divide="ignore", invalid="ignore"):
                cosine = (
                    dxy[None, :, 0] * headings[:, 0:1] + dxy[None, :, 1] * headings[:, 1:2]
                ) / denominator
                penalty = heading_weight * (1.0 - cosine)
            cost = np.where(denominator > 0, cost + penalty, cost)
        return cost

    def nearest_segments(
        self,
        points: np.ndarray,
        k: int,
        headings: Optional[np.ndarray] = None,
        heading_weight: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` nearest segments per query point, grid-accelerated.

        Returns ``(sids, costs)`` of shape ``(P, k)``, padded with ``-1`` /
        ``inf`` when fewer than ``k`` segments exist.  Selection (ordering and
        tie-breaking by ascending segment id) matches the exhaustive scan over
        all segments exactly; the grid only prunes provably-worse candidates.

        Points are grouped by grid cell and each group is scored against its
        3×3 cell block in one vectorised matrix — the common case.  A point
        whose k-th best cost is not strictly below the block's ``cell_size``
        distance guarantee falls back to a per-point expanding-ring search
        that keeps widening until the guarantee holds (or the grid is
        exhausted).
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        num_points = pts.shape[0]
        k = min(int(k), self.num_segments) if self.num_segments else 0
        out_sids = np.full((num_points, k), -1, dtype=np.int64)
        out_costs = np.full((num_points, k), np.inf, dtype=np.float64)
        if k == 0 or num_points == 0:
            return out_sids, out_costs
        grid = self.grid

        cells = grid.cell_ids(pts)
        unique_cells, inverse = np.unique(cells, return_inverse=True)
        pending: List[int] = []
        for group, cell in enumerate(unique_cells):
            rows = np.flatnonzero(inverse == group)
            cell_y, cell_x = divmod(int(cell), grid.nx)
            block_is_whole_grid = (
                cell_x <= 1
                and cell_y <= 1
                and cell_x + 1 >= grid.nx - 1
                and cell_y + 1 >= grid.ny - 1
            )
            block = grid.block_segments(int(cell))
            if block.size == 0:
                if block_is_whole_grid:
                    continue  # genuinely no segments anywhere; nothing to return
                pending.extend(int(r) for r in rows)
                continue
            costs = self.candidate_cost_matrix(
                pts[rows], block, None if headings is None else headings[rows], heading_weight
            )
            take = min(k, block.size)
            order = np.argsort(costs, axis=1, kind="stable")[:, :take]
            top_costs = np.take_along_axis(costs, order, axis=1)
            top_sids = block[order]
            if block_is_whole_grid:
                accepted = np.ones(len(rows), dtype=bool)
            elif block.size < k:
                accepted = np.zeros(len(rows), dtype=bool)
            else:
                # Ring 1 fully examined -> anything unseen costs > cell_size.
                accepted = top_costs[:, take - 1] < grid.cell_size
            good = rows[accepted]
            out_sids[good, :take] = top_sids[accepted]
            out_costs[good, :take] = top_costs[accepted]
            pending.extend(int(r) for r in rows[~accepted])

        for i in pending:
            sids, costs = self._nearest_one(
                float(pts[i, 0]),
                float(pts[i, 1]),
                k,
                None if headings is None else (float(headings[i, 0]), float(headings[i, 1])),
                heading_weight,
            )
            out_sids[i, : sids.size] = sids
            out_costs[i, : costs.size] = costs
        return out_sids, out_costs

    def _nearest_one(
        self,
        x: float,
        y: float,
        k: int,
        heading: Optional[Tuple[float, float]],
        heading_weight: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expanding-ring top-``k`` for one point (the grouped path's fallback)."""
        grid = self.grid
        point = np.array([[x, y]], dtype=np.float64)
        heading_arr = (
            None if heading is None else np.array([heading], dtype=np.float64)
        )
        cx, cy = grid.cell_of(x, y)
        max_ring = grid.max_ring(cx, cy)
        parts: List[np.ndarray] = []
        ring = 0
        while True:
            part = grid.ring_segments(cx, cy, ring)
            if part.size:
                parts.append(part)
            exhausted = ring >= max_ring
            if parts and (exhausted or sum(p.size for p in parts) >= k):
                sids = np.unique(np.concatenate(parts))
                costs = self.candidate_cost_matrix(point, sids, heading_arr, heading_weight)[0]
                order = np.argsort(costs, kind="stable")[:k]
                if exhausted or (
                    order.size == k and costs[order[-1]] < ring * grid.cell_size
                ):
                    return sids[order], costs[order]
            elif exhausted:
                return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
            ring += 1

    # ------------------------------------------------------------------ #
    # in-edge view (batched distance relaxation)
    # ------------------------------------------------------------------ #
    def in_edge_groups(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """In-edges grouped by target node, for vectorised min-plus sweeps.

        Returns ``(edge_order, in_sources, group_starts, group_targets)``:
        ``edge_order`` sorts segments by end node, ``in_sources`` are the
        matching start-node indices, and ``group_starts`` / ``group_targets``
        delimit the contiguous per-target groups (empty targets omitted, so
        the boundaries feed ``np.minimum.reduceat`` directly).
        """
        if self._in_edges is None:
            edge_order = np.argsort(self.seg_end, kind="stable")
            in_sources = self.seg_start[edge_order]
            counts = np.bincount(self.seg_end, minlength=self.num_nodes)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
            has_in = counts > 0
            self._in_edges = (
                edge_order,
                in_sources,
                starts[has_in],
                np.flatnonzero(has_in),
            )
        return self._in_edges

    # ------------------------------------------------------------------ #
    # weights
    # ------------------------------------------------------------------ #
    def length_weights(self) -> List[float]:
        """Per-segment length weights as a plain Python list of floats.

        This is the Dijkstra default (shortest = fewest metres); cached
        because the heap loop indexes a list faster than an ndarray.
        Length ``num_segments``, indexed by segment id.
        """
        if self._length_weight_list is None:
            self._length_weight_list = self.seg_length.tolist()
        return self._length_weight_list

    def resolve_weights(self, weight) -> List[float]:
        """Normalise a weight spec (None | callable | array) to a plain list.

        Callables are evaluated once per segment (the historical per-relaxation
        evaluation re-ran the callable on every edge visit); arrays are the
        fast path the route-choice model uses.  Negative weights are rejected
        up front.
        """
        if weight is None:
            return self.length_weights()
        if callable(weight):
            values = [float(weight(seg)) for seg in self.network.segments()]
        else:
            arr = np.asarray(weight, dtype=np.float64)
            if arr.shape != (self.num_segments,):
                raise ValueError(
                    f"weight array must have shape ({self.num_segments},), got {arr.shape}"
                )
            values = arr.tolist()
        if values and min(values) < 0:
            raise ValueError("Dijkstra requires non-negative segment weights")
        return values


def compile_road_graph(network: "RoadNetwork") -> CompiledRoadGraph:
    """Freeze ``network`` into a :class:`CompiledRoadGraph`.

    Builds fresh flat arrays on every call; prefer
    :meth:`RoadNetwork.compiled`, which constructs the view once and caches
    it on the network (invalidated when segments are added).
    """
    return CompiledRoadGraph(network)


# --------------------------------------------------------------------------- #
# CSR Dijkstra
# --------------------------------------------------------------------------- #
def csr_dijkstra(
    graph: CompiledRoadGraph,
    source_index: int,
    target_index: int = -1,
    weights: WeightsLike = None,
    banned_segments=None,
) -> Tuple[List[float], List[int], List[int]]:
    """Single-source Dijkstra on the compiled node graph.

    Parameters use node *indices* (see :attr:`CompiledRoadGraph.node_index`).
    ``weights`` may be None (segment lengths), a per-segment array, or a list
    from :meth:`CompiledRoadGraph.resolve_weights`.  Returns
    ``(distances, prev_node, prev_segment)`` lists indexed by node index, with
    ``inf`` / ``-1`` marking unreached nodes.

    The algorithm — lazy-deletion binary heap, strict-improvement relaxation,
    ``(distance, node)`` tie-breaking, insertion-order edge iteration — is the
    dict-based Dijkstra oracle of ``tests/roadnet_reference.py`` verbatim, so
    routes and distances are bit-identical; only the per-edge bookkeeping
    (dataclass construction, dict lookups, callable dispatch) is gone.
    """
    if isinstance(weights, list):
        weight_list = weights
    else:
        weight_list = graph.resolve_weights(weights)
    n = graph.num_nodes
    out_lists = graph._out_lists
    dist: List[float] = [_INF] * n
    prev_node: List[int] = [-1] * n
    prev_seg: List[int] = [-1] * n
    visited: List[bool] = [False] * n
    dist[source_index] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source_index)]
    banned = frozenset(banned_segments) if banned_segments else None
    while heap:
        d, u = heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        if u == target_index:
            break
        if banned is None:
            for v, sid in out_lists[u]:
                nd = d + weight_list[sid]
                if nd < dist[v]:
                    dist[v] = nd
                    prev_node[v] = u
                    prev_seg[v] = sid
                    heappush(heap, (nd, v))
        else:
            for v, sid in out_lists[u]:
                if sid in banned:
                    continue
                nd = d + weight_list[sid]
                if nd < dist[v]:
                    dist[v] = nd
                    prev_node[v] = u
                    prev_seg[v] = sid
                    heappush(heap, (nd, v))
    return dist, prev_node, prev_seg


def csr_route(
    graph: CompiledRoadGraph,
    source_index: int,
    target_index: int,
    weights: WeightsLike = None,
    banned_segments=None,
) -> Optional[List[int]]:
    """Shortest route between two node indices as a list of segment ids.

    Returns ``[]`` when source and target coincide and ``None`` when the
    target is unreachable; otherwise the segment ids in travel order.
    ``weights`` / ``banned_segments`` follow :func:`csr_dijkstra`.
    """
    if source_index == target_index:
        return []
    _, prev_node, prev_seg = csr_dijkstra(
        graph, source_index, target_index, weights=weights, banned_segments=banned_segments
    )
    if prev_seg[target_index] == -1:
        return None
    route: List[int] = []
    node = target_index
    while node != source_index:
        route.append(prev_seg[node])
        node = prev_node[node]
    route.reverse()
    return route


def csr_dijkstra_batched(
    graph: CompiledRoadGraph,
    source_indices: Sequence[int],
    weights: WeightsLike = None,
) -> np.ndarray:
    """Multi-source shortest distances: ``(num_sources, num_nodes)`` array.

    Unreachable nodes hold ``inf``.  With scipy available (and strictly
    positive weights, which ``csgraph`` requires to distinguish edges from
    absences) the whole batch runs through one C-level
    ``scipy.sparse.csgraph.dijkstra`` call; otherwise all sources relax
    together through vectorised min-plus sweeps over the in-edge CSR — one
    gather + add + ``minimum.reduceat`` per sweep to fixpoint (≤ graph
    diameter sweeps).  The shortest-distance fixpoint is unique, so either
    path equals the heap Dijkstra's results bit-for-bit.  Its one library
    caller is :func:`~repro.roadnet.shortest_path.batched_dijkstra_distances`.
    """
    weight_list = graph.resolve_weights(weights) if not isinstance(weights, list) else weights
    num_sources = len(source_indices)
    if num_sources == 0:
        return np.full((0, graph.num_nodes), np.inf, dtype=np.float64)
    weight_array = np.asarray(weight_list, dtype=np.float64)
    if _HAVE_SCIPY and graph.num_segments and bool((weight_array > 0).all()):
        matrix = _scipy_csr_matrix(
            (weight_array, (graph.seg_start, graph.seg_end)),
            shape=(graph.num_nodes, graph.num_nodes),
        )
        return _scipy_dijkstra(
            matrix, directed=True, indices=np.asarray(source_indices, dtype=np.int64)
        )
    distances = np.full((num_sources, graph.num_nodes), np.inf, dtype=np.float64)
    distances[np.arange(num_sources), np.asarray(source_indices, dtype=np.int64)] = 0.0
    edge_order, in_sources, group_starts, group_targets = graph.in_edge_groups()
    if group_targets.size == 0:
        return distances
    in_weights = weight_array[edge_order]
    for _ in range(graph.num_nodes):
        candidates = distances[:, in_sources] + in_weights
        group_min = np.minimum.reduceat(candidates, group_starts, axis=1)
        updated = np.minimum(distances[:, group_targets], group_min)
        if np.array_equal(updated, distances[:, group_targets]):
            break
        distances[:, group_targets] = updated
    return distances
