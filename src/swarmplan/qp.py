"""Per-agent convex QP: assembly and a deterministic active-set solver.

The decision vector stacks all control points of one agent's trajectory,
x[(m*(n+1) + l)*3 + axis]. The objective trades goal tracking at segment
endpoints against integrated squared jerk. Equalities pin the initial state,
enforce acceleration-level continuity at interior knots, and hold the final
segment constant; inequalities bound derivative control points per axis and
confine control points to the safe boxes and separating half-spaces.

The solver eliminates equalities through an orthonormal nullspace basis,
built once per parameter set, and runs a primal active-set method on the
reduced strictly convex problem. It needs a feasible start and has no phase
one: for planner problems the shifted previous trajectory is that start, and
any numerical failure raises QpInfeasibleError, which the planner absorbs by
flying the shifted plan. Every linear solve is direct with one step of
iterative refinement and all tie-breaks are by lowest row index, so results
are deterministic and residuals reach solver precision rather than a
first-order method's tolerance floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from swarmplan.bernstein import BernsteinSegment, PiecewiseTrajectory
from swarmplan.errors import QpInfeasibleError


def difference_operator(degree: int, duration: float) -> np.ndarray:
    """Matrix mapping segment control points to derivative control points."""
    op = np.zeros((degree, degree + 1))
    scale = degree / duration
    for l in range(degree):
        op[l, l] = -scale
        op[l, l + 1] = scale
    return op


def basis_product_integrals(degree: int) -> np.ndarray:
    """B[i, j] = integral over [0,1] of b_{i,p} b_{j,p} for p = degree."""
    p = degree
    out = np.empty((p + 1, p + 1))
    for i in range(p + 1):
        for j in range(p + 1):
            out[i, j] = (
                math.comb(p, i)
                * math.comb(p, j)
                / math.comb(2 * p, i + j)
                / (2 * p + 1)
            )
    return out


def jerk_gram_matrix(degree: int, duration: float) -> np.ndarray:
    """Closed-form Gram matrix of the integrated squared jerk of one segment.

    With D the three-fold difference operator and B the Bernstein product
    integrals of degree n-3, the jerk energy is duration * c^T D^T B D c per
    axis. Degrees below 3 have zero jerk everywhere.
    """
    n = degree
    if n < 3:
        return np.zeros((n + 1, n + 1))
    d3 = (
        difference_operator(n - 2, duration)
        @ difference_operator(n - 1, duration)
        @ difference_operator(n, duration)
    )
    return duration * d3.T @ basis_product_integrals(n - 3) @ d3


@dataclass
class ResidualReport:
    """Exact constraint residuals of a candidate point."""

    max_equality_residual: float
    max_inequality_violation: float

    def max_violation(self) -> float:
        return max(self.max_equality_residual, self.max_inequality_violation)


@dataclass(frozen=True)
class EqualityReduction:
    """Equality elimination x = pinv @ eq_rhs + nullspace @ y, for one pair
    of quadratic cost and equality matrix.

    `hessian` is the reduced Hessian scaled by 1/sigma and symmetrised, with
    a ridge added only if its Cholesky factorisation fails. `static_rows`
    are the unnormalised reduced rows of the leading inequality rows that
    every problem sharing this reduction carries (none for generic
    problems).
    """

    pinv: np.ndarray
    nullspace: np.ndarray
    sigma: float
    hessian: np.ndarray
    static_rows: np.ndarray


def reduce_equalities(quadratic, eq_matrix, static_blocks=()) -> EqualityReduction:
    """Build the nullspace reduction; each static block is reduced on its own.

    Raises QpInfeasibleError when the reduced cost is not positive definite
    even after a small ridge.
    """
    dim = quadratic.shape[0]
    pinv = np.linalg.pinv(eq_matrix)
    _, s, vt = np.linalg.svd(eq_matrix)
    rank = int(np.sum(s > s[0] * 1e-12)) if len(s) else 0
    null = vt[rank:].T
    k = null.shape[1]
    # Relative scaling keeps stationarity measures meaningful when the jerk
    # Gram entries are large.
    sigma = max(1.0, float(np.max(np.abs(quadratic))) if dim else 1.0)
    h_red = null.T @ quadratic @ null / sigma
    h_red = 0.5 * (h_red + h_red.T)
    reg = 1e-13 * max(1.0, float(np.trace(h_red)) / max(k, 1))
    while True:
        try:
            np.linalg.cholesky(h_red)
            break
        except np.linalg.LinAlgError:
            h_red = h_red + reg * np.eye(k)
            reg *= 100.0
            if reg > 1e-3:
                raise QpInfeasibleError("quadratic cost is not positive definite", 0)
    static_rows = np.vstack([np.zeros((0, k))] + [block @ null for block in static_blocks])
    return EqualityReduction(pinv, null, sigma, h_red, static_rows)


@dataclass
class QpProblem:
    """Dense convex QP: minimize 0.5 x'Px + q'x + c0 subject to
    eq_matrix x = eq_rhs and ineq_matrix x <= ineq_rhs.

    `reduction`, when given, must have been built from this problem's
    quadratic and eq_matrix, and its static rows must be the leading rows of
    ineq_matrix; without one, solve builds a generic reduction.
    """

    quadratic: np.ndarray
    linear: np.ndarray
    constant: float
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    reduction: EqualityReduction | None = None

    @property
    def dimension(self) -> int:
        return len(self.linear)

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.quadratic @ x + self.linear @ x + self.constant)

    def check(self, x) -> ResidualReport:
        """Recompute residuals of every row at x (never trusts the solver)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"candidate has shape {x.shape}, expected ({self.dimension},)")
        eq = 0.0
        if len(self.eq_rhs):
            eq = float(np.max(np.abs(self.eq_matrix @ x - self.eq_rhs)))
        viol = self.ineq_matrix @ x - self.ineq_rhs if len(self.ineq_rhs) else np.zeros(0)
        max_ineq = float(np.max(viol)) if viol.size else 0.0
        return ResidualReport(eq, max_ineq)


@dataclass
class QpSolution:
    values: np.ndarray
    objective: float
    max_equality_residual: float
    max_inequality_violation: float
    stationarity_residual: float
    iterations: int


class ParamMatrices:
    """Static assembly pieces for one parameter set (shared across steps)."""

    def __init__(self, params):
        n = params.degree
        m_count = params.segment_count
        dt = params.segment_time
        self.dim = 3 * m_count * (n + 1)
        pts_per_seg = n + 1

        def idx(m, l, axis):
            return ((m * pts_per_seg + l) * 3) + axis

        # Quadratic cost: jerk energy plus goal-endpoint weights (static; the
        # goal position only enters the linear term).
        gram = jerk_gram_matrix(n, dt)
        p_mat = np.zeros((self.dim, self.dim))
        for m in range(m_count):
            base = m * pts_per_seg * 3
            block = 2.0 * params.jerk_weight * np.kron(gram, np.eye(3))
            p_mat[base : base + pts_per_seg * 3, base : base + pts_per_seg * 3] += block
        for m in range(m_count):
            w = params.goal_weights[m]
            for axis in range(3):
                p_mat[idx(m, n, axis), idx(m, n, axis)] += 2.0 * w
        self.quadratic = p_mat
        self.goal_indices = np.array(
            [[idx(m, n, axis) for axis in range(3)] for m in range(m_count)]
        )

        # Equalities: 9 initial-state rows, 9 per interior knot, 3n terminal.
        rows = []
        r = np.zeros((9, self.dim))
        for axis in range(3):
            r[axis, idx(0, 0, axis)] = 1.0
            r[3 + axis, idx(0, 1, axis)] = 1.0
            r[3 + axis, idx(0, 0, axis)] = -1.0
            r[6 + axis, idx(0, 2, axis)] = 1.0
            r[6 + axis, idx(0, 1, axis)] = -2.0
            r[6 + axis, idx(0, 0, axis)] = 1.0
        rows.append(r)
        for m in range(m_count - 1):
            r = np.zeros((9, self.dim))
            for axis in range(3):
                r[axis, idx(m, n, axis)] = 1.0
                r[axis, idx(m + 1, 0, axis)] = -1.0
                r[3 + axis, idx(m, n, axis)] = 1.0
                r[3 + axis, idx(m, n - 1, axis)] = -1.0
                r[3 + axis, idx(m + 1, 1, axis)] = -1.0
                r[3 + axis, idx(m + 1, 0, axis)] = 1.0
                r[6 + axis, idx(m, n, axis)] = 1.0
                r[6 + axis, idx(m, n - 1, axis)] = -2.0
                r[6 + axis, idx(m, n - 2, axis)] = 1.0
                r[6 + axis, idx(m + 1, 2, axis)] = -1.0
                r[6 + axis, idx(m + 1, 1, axis)] = 2.0
                r[6 + axis, idx(m + 1, 0, axis)] = -1.0
            rows.append(r)
        r = np.zeros((3 * n, self.dim))
        for l in range(1, n + 1):
            for axis in range(3):
                r[(l - 1) * 3 + axis, idx(m_count - 1, l, axis)] = 1.0
                r[(l - 1) * 3 + axis, idx(m_count - 1, 0, axis)] = -1.0
        rows.append(r)
        self.eq_matrix = np.vstack(rows)
        self.initial_rows = slice(0, 9)

        # Dynamic limits on derivative control points, one pair of rows per
        # point and axis.
        vel_rows = []
        vel_rhs = []
        k1 = n / dt
        for m in range(m_count):
            for l in range(n):
                for axis in range(3):
                    row = np.zeros(self.dim)
                    row[idx(m, l + 1, axis)] = k1
                    row[idx(m, l, axis)] = -k1
                    vel_rows.append(row)
                    vel_rhs.append(params.max_velocity[axis])
                    vel_rows.append(-row)
                    vel_rhs.append(params.max_velocity[axis])
        acc_rows = []
        acc_rhs = []
        k2 = n * (n - 1) / dt / dt
        for m in range(m_count):
            for l in range(n - 1):
                for axis in range(3):
                    row = np.zeros(self.dim)
                    row[idx(m, l + 2, axis)] = k2
                    row[idx(m, l + 1, axis)] = -2.0 * k2
                    row[idx(m, l, axis)] = k2
                    acc_rows.append(row)
                    acc_rhs.append(params.max_acceleration[axis])
                    acc_rows.append(-row)
                    acc_rhs.append(params.max_acceleration[axis])
        self.dyn_matrix = np.vstack([np.array(vel_rows), np.array(acc_rows)])
        self.dyn_rhs = np.array(vel_rhs + acc_rhs)

        # Safe-box rows: +-1 coefficient per control point and axis; the
        # right-hand side comes from the step's corridor.
        box_rows = []
        for m in range(m_count):
            for l in range(pts_per_seg):
                for axis in range(3):
                    row = np.zeros(self.dim)
                    row[idx(m, l, axis)] = 1.0
                    box_rows.append(row)
                    box_rows.append(-row)
        self.box_matrix = np.vstack(box_rows)

        # Equality elimination for the solver, shared across steps; the
        # dynamic and box rows lead every step's inequality matrix.
        self.reduction = reduce_equalities(
            self.quadratic, self.eq_matrix, (self.dyn_matrix, self.box_matrix)
        )

        # Column triples of each (segment, point) block, for fast separation
        # row fills, plus cached full inequality templates per neighbor count.
        self.sep_cols = np.arange(self.dim).reshape(-1, 3)
        self._ineq_templates: dict[int, np.ndarray] = {}

    def ineq_template(self, separation_rows: int) -> np.ndarray:
        """Full inequality matrix with zeroed separation rows (copy per use)."""
        cached = self._ineq_templates.get(separation_rows)
        if cached is None:
            separation = np.zeros((separation_rows, self.dim))
            cached = np.vstack([self.dyn_matrix, self.box_matrix, separation])
            cached.setflags(write=False)
            self._ineq_templates[separation_rows] = cached
        return cached.copy()


_MATRIX_CACHE: dict = {}


def param_matrices(params) -> ParamMatrices:
    cached = _MATRIX_CACHE.get(params)
    if cached is None:
        cached = ParamMatrices(params)
        _MATRIX_CACHE[params] = cached
    return cached


def assemble(
    init_traj: PiecewiseTrajectory,
    goal,
    corridor,
    separations,
    params,
) -> tuple[QpProblem, np.ndarray]:
    """Build the step QP around the shifted trajectory.

    Returns the problem and the candidate decision vector (the stacked
    control points of init_traj). The initial-state rows take their
    right-hand side from the candidate itself, which is exactly the desired
    state carried over from the previous plan.
    """
    if init_traj.degree != params.degree or init_traj.segment_count != params.segment_count:
        raise ValueError("trajectory shape does not match parameters")
    if len(corridor.boxes) != params.segment_count:
        raise ValueError("corridor length does not match parameters")
    mats = param_matrices(params)
    n = params.degree
    m_count = params.segment_count
    pts_per_seg = n + 1

    candidate = init_traj.control_point_stack().reshape(-1)
    goal = np.asarray(goal, dtype=float).reshape(3)

    linear = np.zeros(mats.dim)
    constant = 0.0
    for m in range(m_count):
        w = params.goal_weights[m]
        linear[mats.goal_indices[m]] = -2.0 * w * goal
        constant += w * float(goal @ goal)

    eq_rhs = np.zeros(mats.eq_matrix.shape[0])
    eq_rhs[mats.initial_rows] = mats.eq_matrix[mats.initial_rows] @ candidate

    # Box rows per (m, l, axis) are interleaved (upper, lower).
    his = np.array([box.hi for box in corridor.boxes])  # (M, 3)
    los = np.array([box.lo for box in corridor.boxes])
    box_pairs = np.empty((m_count, pts_per_seg, 3, 2))
    box_pairs[..., 0] = his[:, None, :]
    box_pairs[..., 1] = -los[:, None, :]
    box_rhs = box_pairs.reshape(-1)

    n_dyn = len(mats.dyn_rhs)
    n_box = len(box_rhs)
    rows_per_pair = m_count * pts_per_seg
    n_sep = len(separations) * rows_per_pair
    ineq = mats.ineq_template(n_sep)
    ineq_rhs = np.empty(n_dyn + n_box + n_sep)
    ineq_rhs[:n_dyn] = mats.dyn_rhs
    ineq_rhs[n_dyn : n_dyn + n_box] = box_rhs
    if separations:
        normals = np.stack([pair.normals for pair in separations])  # (K, M, 3)
        anchors = np.stack([pair.anchors for pair in separations])  # (K, M, n+1, 3)
        margins = np.stack([pair.margins for pair in separations])  # (K, M, n+1)
        if anchors.shape[1:] != (m_count, pts_per_seg, 3):
            raise ValueError("separation constraint length does not match parameters")
        # A batched matrix-vector product per segment: bit-identical to
        # anchors[k, m] @ normals[k, m], which einsum is not.
        offsets = (anchors @ normals[..., None])[..., 0] + margins
        rows = n_dyn + n_box + np.arange(n_sep)
        cols = np.tile(mats.sep_cols, (len(separations), 1))
        ineq[rows[:, None], cols] = -np.repeat(normals.reshape(-1, 3), pts_per_seg, axis=0)
        ineq_rhs[rows] = -offsets.reshape(-1)

    problem = QpProblem(
        quadratic=mats.quadratic,
        linear=linear,
        constant=constant,
        eq_matrix=mats.eq_matrix,
        eq_rhs=eq_rhs,
        ineq_matrix=ineq,
        ineq_rhs=ineq_rhs,
        reduction=mats.reduction,
    )
    return problem, candidate


def trajectory_from_values(values, params, start_time: float) -> PiecewiseTrajectory:
    """Decode a decision vector back into a piecewise trajectory."""
    n = params.degree
    pts = np.asarray(values, dtype=float).reshape(params.segment_count, n + 1, 3)
    segs = [BernsteinSegment(p, params.segment_time) for p in pts]
    return PiecewiseTrajectory(segs, start_time)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def solve(
    problem: QpProblem,
    tol: float = 1e-6,
    warm_start=None,
    max_iterations: int | None = None,
) -> QpSolution:
    """Solve the QP to within tol on feasibility and relative stationarity.

    Equalities are eliminated through the problem's nullspace reduction; the
    reduced problem is handled by a primal active-set iteration that starts
    at `warm_start`, or at the unconstrained minimum when it is None. The
    start must be feasible: there is no phase one, and a start more than
    1e-7 outside any normalised inequality row raises QpInfeasibleError, as
    do an inequality row of zero norm, inconsistent equalities, an exhausted
    iteration budget, a singular linear system and a result outside
    tolerance. The planner absorbs all of these by flying its shifted plan.
    """
    mi = len(problem.ineq_rhs)
    if max_iterations is None:
        max_iterations = 3 * mi + 120
    if max_iterations <= 0:
        raise QpInfeasibleError("iteration budget exhausted before solving", 0)

    red = problem.reduction or reduce_equalities(problem.quadratic, problem.eq_matrix)
    null = red.nullspace
    x_part = red.pinv @ problem.eq_rhs
    eq_err = float(np.max(np.abs(problem.eq_matrix @ x_part - problem.eq_rhs), initial=0.0))
    eq_scale = 1.0 + float(np.max(np.abs(problem.eq_rhs), initial=0.0))
    if eq_err > max(tol, 1e-9) * eq_scale:
        raise QpInfeasibleError(f"inconsistent equality constraints ({eq_err:.3e})", 0)

    k = null.shape[1]
    if k == 0:
        return _package(problem, x_part, 0, tol, stationarity=0.0)

    h_red = red.hessian
    f_red = null.T @ (problem.quadratic @ x_part + problem.linear) / red.sigma

    n_static = red.static_rows.shape[0]
    c_red = np.vstack([red.static_rows, problem.ineq_matrix[n_static:] @ null])
    d_red = problem.ineq_rhs - problem.ineq_matrix @ x_part
    row_norms = np.linalg.norm(problem.ineq_matrix, axis=1)
    if not np.all(row_norms > 0.0):
        raise QpInfeasibleError("zero inequality row", 0)
    c_red = c_red / row_norms[:, None]
    d_red = d_red / row_norms

    if warm_start is not None:
        y0 = null.T @ (np.asarray(warm_start, dtype=float) - x_part)
    else:
        y0 = _refined_solve(h_red, -f_red)
    worst = float(np.max(c_red @ y0 - d_red, initial=0.0))
    if worst > 1e-7:
        raise QpInfeasibleError(f"start point is infeasible (violation {worst:.3e})", 0)

    y, working, lam, iterations = _active_set(h_red, f_red, c_red, d_red, y0, max_iterations)

    # Stationarity straight from the terminating KKT system of the scaled
    # reduced problem; tiny negative multipliers within the optimality
    # tolerance are clipped.
    stat_vec = h_red @ y + f_red
    if working:
        stat_vec = stat_vec + c_red[working].T @ np.maximum(lam, 0.0)
    stationarity = float(np.max(np.abs(stat_vec)))
    x = x_part + null @ y
    return _package(problem, x, iterations, tol, stationarity)


def _package(problem, x, iterations, tol, stationarity) -> QpSolution:
    report = problem.check(x)
    solution = QpSolution(
        values=x,
        objective=problem.objective(x),
        max_equality_residual=report.max_equality_residual,
        max_inequality_violation=report.max_inequality_violation,
        stationarity_residual=stationarity,
        iterations=iterations,
    )
    if (
        solution.max_equality_residual > tol
        or solution.max_inequality_violation > tol
        or solution.stationarity_residual > tol
    ):
        raise QpInfeasibleError(
            f"solution outside tolerance (eq {solution.max_equality_residual:.2e}, "
            f"ineq {solution.max_inequality_violation:.2e}, "
            f"stat {solution.stationarity_residual:.2e})",
            iterations,
        )
    return solution


def _refined_solve(a, b):
    """Direct solve with one iterative-refinement pass."""
    z = np.linalg.solve(a, b)
    z += np.linalg.solve(a, b - a @ z)
    return z


def _active_set(h, f, c, d, y0, max_iterations):
    """Primal active-set iteration on min 0.5 y'Hy + f'y s.t. Cy <= d.

    Requires a feasible y0. Blocking constraints enter by lowest row index
    among minimal step ratios; constraints leave by most negative multiplier.
    Returns (y, working rows, multipliers, iterations); raises
    QpInfeasibleError on a singular linear system or an exhausted budget.
    """
    k = len(y0)
    mi = len(d)
    y = np.array(y0, dtype=float)
    working: list[int] = []
    in_working = np.zeros(mi, dtype=bool)
    iterations = 0

    while iterations < max_iterations:
        iterations += 1
        grad = h @ y + f
        nw = len(working)
        if nw:
            kkt = np.zeros((k + nw, k + nw))
            kkt[:k, :k] = h
            rows = c[working]
            kkt[:k, k:] = rows.T
            kkt[k:, :k] = rows
            # The lower block restores working rows to their boundaries, so
            # epsilon-level drift of the start cannot persist.
            rhs = np.concatenate([-grad, d[working] - rows @ y])
        else:
            kkt, rhs = h, -grad
        try:
            z = _refined_solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise QpInfeasibleError(f"singular active-set system ({exc})", iterations) from exc
        p = z[:k]
        lam = z[k:]

        if float(np.max(np.abs(p))) <= 1e-11 * (1.0 + float(np.max(np.abs(y)))):
            if nw == 0:
                return y, working, lam, iterations
            drop = int(np.argmin(lam))
            if lam[drop] >= -1e-9:
                return y, working, lam, iterations
            in_working[working[drop]] = False
            working.pop(drop)
            continue

        step = 1.0
        blocking = -1
        if mi:
            cp = c @ p
            candidates = np.nonzero(~in_working & (cp > 1e-12))[0]
            if len(candidates):
                slack = np.maximum(d[candidates] - c[candidates] @ y, 0.0)
                ratios = slack / cp[candidates]
                best = float(np.min(ratios))
                if best < 1.0:
                    step = best
                    hit = candidates[ratios <= best + 1e-12 * (1.0 + best)]
                    blocking = int(np.min(hit))
        y = y + step * p
        if blocking >= 0:
            working.append(blocking)
            in_working[blocking] = True
    raise QpInfeasibleError("active-set iteration budget exhausted", iterations)

