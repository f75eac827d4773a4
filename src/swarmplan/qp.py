"""Per-agent convex QP: assembly and a deterministic active-set solver.

The decision vector stacks all control points of one agent's trajectory,
x[(m*(n+1) + l)*3 + axis]. The objective trades goal tracking at segment
endpoints against integrated squared jerk. Equalities pin the initial state,
enforce acceleration-level continuity at interior knots, and hold the final
segment constant; inequalities bound derivative control points per axis and
confine control points to the safe boxes and separating half-spaces.

The solver eliminates equalities through an orthonormal nullspace basis and
factors the reduced Hessian once, both per parameter set, and runs a primal
active-set method on the reduced strictly convex problem in the Cholesky
coordinates, where the Hessian is the identity: a step is a projection onto
the null space of the working rows, read off an orthogonal factorisation of
those rows that grows by one Householder reflection per entering row. It
needs a feasible start and has no phase one: for planner problems the
shifted previous trajectory is that start, and any numerical failure raises
QpInfeasibleError, which the planner absorbs by flying the shifted plan. All
tie-breaks are by lowest row index, so results are deterministic, and
residuals reach solver precision rather than a first-order method's
tolerance floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    of quadratic cost and equality matrix, and the Cholesky coordinates the
    solver iterates in.

    The reduced Hessian, scaled by 1/sigma and symmetrised (with a ridge
    added only if its Cholesky factorisation fails), is `factor` @
    `factor`.T. In z = factor.T @ y it is the identity, and
    x = pinv @ eq_rhs + basis @ z with basis = nullspace @ factor^-T. The
    static rows are the leading inequality rows that every problem sharing
    this reduction carries: `static_norms` holds their full-space norms and
    `static_rows` their rows in z, divided by those norms.
    """

    pinv: np.ndarray
    nullspace: np.ndarray
    sigma: float
    factor: np.ndarray
    basis: np.ndarray
    static_rows: np.ndarray
    static_norms: np.ndarray


def reduce_equalities(quadratic, eq_matrix, static_blocks=()) -> EqualityReduction:
    """Build the nullspace reduction and its Cholesky coordinates, with the
    rows of `static_blocks`, stacked, as the static rows.

    Raises QpInfeasibleError when the reduced cost is not positive definite
    even after a small ridge, or when a static row has zero norm.
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
            factor = np.linalg.cholesky(h_red)
            break
        except np.linalg.LinAlgError:
            h_red = h_red + reg * np.eye(k)
            reg *= 100.0
            if reg > 1e-3:
                raise QpInfeasibleError("quadratic cost is not positive definite", 0)
    static = np.vstack([np.zeros((0, dim))] + list(static_blocks))
    static_norms = np.linalg.norm(static, axis=1)
    if not np.all(static_norms > 0.0):
        raise QpInfeasibleError("zero inequality row", 0)
    # nullspace @ factor^-T, by the solve factor @ basis.T = nullspace.T.
    basis = np.ascontiguousarray(np.linalg.solve(factor, null.T).T)
    static_rows = static @ basis / static_norms[:, None]
    return EqualityReduction(pinv, null, sigma, factor, basis, static_rows, static_norms)


@dataclass
class QpProblem:
    """Convex QP: minimize 0.5 x'Px + q'x + c0 subject to eq_matrix x =
    eq_rhs and the inequality rows `ineq_rhs` bounds, in two groups.

    The leading rows are dense: `ineq_matrix` holds them, and for planner
    problems it is the parameter set's read-only static block (dynamic
    limits, then safe-box faces) that every step shares. The trailing
    `len(separation_coefficients)` rows are separation rows, stored only as
    their 3-vector coefficients, in groups of one row per control point:
    row s reads `separation_coefficients[s] . x[3p : 3p + 3]` with
    p = s mod (dimension / 3). `check` evaluates both groups from this
    structure. `reduction` must have been built from this problem's
    quadratic and eq_matrix with ineq_matrix as its static rows.
    """

    quadratic: np.ndarray
    linear: np.ndarray
    constant: float
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    reduction: EqualityReduction
    separation_coefficients: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    @property
    def dimension(self) -> int:
        return len(self.linear)

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.quadratic @ x + self.linear @ x + self.constant)

    def inequality_residuals(self, x) -> np.ndarray:
        """Every inequality row's left side minus its bound at x: the dense
        rows by one product, each separation row as its coefficient dotted
        with its control point."""
        lhs = np.empty(len(self.ineq_rhs))
        n_dense = len(self.ineq_matrix)
        lhs[:n_dense] = self.ineq_matrix @ x
        coefficients = self.separation_coefficients
        if len(coefficients):
            points = x.reshape(-1, 3)
            per_point = coefficients.reshape(-1, len(points), 3)
            lhs[n_dense:] = np.einsum("spd,pd->sp", per_point, points).reshape(-1)
        return lhs - self.ineq_rhs

    def check(self, x) -> ResidualReport:
        """Recompute residuals of every row at x (never trusts the solver)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"candidate has shape {x.shape}, expected ({self.dimension},)")
        eq = 0.0
        if len(self.eq_rhs):
            eq = float(np.max(np.abs(self.eq_matrix @ x - self.eq_rhs)))
        viol = self.inequality_residuals(x)
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

        # The static inequality rows every step shares, read-only, and the
        # equality elimination for the solver built with them.
        self.ineq_matrix = np.vstack([self.dyn_matrix, self.box_matrix])
        self.ineq_matrix.setflags(write=False)
        self.reduction = reduce_equalities(
            self.quadratic, self.eq_matrix, (self.dyn_matrix, self.box_matrix)
        )


_MATRIX_CACHE: dict = {}


def param_matrices(params) -> ParamMatrices:
    cached = _MATRIX_CACHE.get(params)
    if cached is None:
        cached = ParamMatrices(params)
        _MATRIX_CACHE[params] = cached
    return cached


def assemble(
    points: np.ndarray,
    goal,
    corridor,
    normals,
    anchors,
    margins,
    params,
) -> tuple[QpProblem, np.ndarray]:
    """Build the step QP around one agent's shifted plan, `points`
    (M, n+1, 3).

    normals (K, M, 3), anchors (K, M, n+1, 3) and margins (K, M, n+1) hold
    the separating half-spaces against K neighbours (see PairSeparation):
    point l of segment m must keep (c - anchors[k, m, l]) . normals[k, m]
    >= margins[k, m, l]. Returns the problem and the candidate decision
    vector (`points` flattened). The initial-state rows take their
    right-hand side from the candidate itself, which is exactly the
    desired state carried over from the previous plan.
    """
    if points.shape != (params.segment_count, params.degree + 1, 3):
        raise ValueError("trajectory shape does not match parameters")
    if len(corridor.boxes) != params.segment_count:
        raise ValueError("corridor length does not match parameters")
    mats = param_matrices(params)
    n = params.degree
    m_count = params.segment_count
    pts_per_seg = n + 1
    if anchors.shape[1:] != (m_count, pts_per_seg, 3):
        raise ValueError("separation constraint length does not match parameters")

    candidate = points.reshape(-1)
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
    n_dyn = len(mats.dyn_rhs)
    n_static = len(mats.ineq_matrix)
    ineq_rhs = np.empty(n_static + len(anchors) * m_count * pts_per_seg)
    ineq_rhs[:n_dyn] = mats.dyn_rhs
    box_pairs = ineq_rhs[n_dyn:n_static].reshape(m_count, pts_per_seg, 3, 2)
    box_pairs[..., 0] = np.array([box.max_corner for box in corridor.boxes])[:, None, :]
    box_pairs[..., 1] = -np.array([box.min_corner for box in corridor.boxes])[:, None, :]
    # A batched matrix-vector product per segment: bit-identical to
    # anchors[k, m] @ normals[k, m], which einsum is not.
    offsets = (anchors @ normals[..., None])[..., 0] + margins
    ineq_rhs[n_static:] = -offsets.reshape(-1)

    problem = QpProblem(
        quadratic=mats.quadratic,
        linear=linear,
        constant=constant,
        eq_matrix=mats.eq_matrix,
        eq_rhs=eq_rhs,
        ineq_matrix=mats.ineq_matrix,
        ineq_rhs=ineq_rhs,
        reduction=mats.reduction,
        separation_coefficients=-np.repeat(normals.reshape(-1, 3), pts_per_seg, axis=0),
    )
    return problem, candidate


def trajectory_from_values(values, params) -> np.ndarray:
    """Decode a decision vector back into a plan's (M, n+1, 3) control
    points."""
    return np.asarray(values, dtype=float).reshape(params.segment_count, params.degree + 1, 3)


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def solve(
    problem: QpProblem,
    tol: float,
    warm_start,
    max_iterations: int | None,
) -> QpSolution:
    """Solve the QP to within tol on feasibility and relative stationarity.

    Equalities are eliminated through the problem's nullspace reduction. The
    reduced problem is handled by a primal active-set iteration in the
    reduction's Cholesky coordinates, where the Hessian is the identity,
    starting at `warm_start`. A None `max_iterations` allows 3 per
    inequality row plus 120 (PlanningParams' automatic budget). Only the
    separation rows are set up per call, from their coefficients and the
    reduction's basis (see `_reduced_rows`); the static rows come reduced
    and normalised with the reduction. The
    start must be feasible: there is no phase one, and a start more than
    1e-7 outside any normalised inequality row raises QpInfeasibleError, as
    do an inequality row of zero norm, inconsistent equalities, an exhausted
    iteration budget, a singular working-set system and a result outside
    tolerance. The planner absorbs all of these by flying its shifted plan.
    """
    mi = len(problem.ineq_rhs)
    if max_iterations is None:
        max_iterations = 3 * mi + 120
    if max_iterations <= 0:
        raise QpInfeasibleError("iteration budget exhausted before solving", 0)

    red = problem.reduction
    null = red.nullspace
    x_part = red.pinv @ problem.eq_rhs
    eq_err = float(np.max(np.abs(problem.eq_matrix @ x_part - problem.eq_rhs), initial=0.0))
    eq_scale = 1.0 + float(np.max(np.abs(problem.eq_rhs), initial=0.0))
    if eq_err > max(tol, 1e-9) * eq_scale:
        raise QpInfeasibleError(f"inconsistent equality constraints ({eq_err:.3e})", 0)

    if null.shape[1] == 0:
        return _package(problem, x_part, 0, tol, stationarity=0.0)

    # Gradient at x_part in y (f) and in z = factor.T @ y (g = factor^-1 f).
    grad_x = (problem.quadratic @ x_part + problem.linear) / red.sigma
    f_red = null.T @ grad_x
    g = red.basis.T @ grad_x
    a, d = _reduced_rows(problem, red, x_part)

    z0 = red.factor.T @ (null.T @ (np.asarray(warm_start, dtype=float) - x_part))
    slack = d - a @ z0
    worst = float(np.max(-slack, initial=0.0))
    if worst > 1e-7:
        raise QpInfeasibleError(f"start point is infeasible (violation {worst:.3e})", 0)

    z, working, lam, iterations = _active_set(a, g, slack, z0, max_iterations)

    # Stationarity of the scaled reduced problem in y, where the Hessian
    # term is factor @ z and the working rows are a[working] @ factor.T;
    # tiny negative multipliers within the optimality tolerance are clipped.
    rows_y = a[working] @ red.factor.T
    stat_vec = red.factor @ z + f_red + rows_y.T @ np.maximum(lam, 0.0)
    stationarity = float(np.max(np.abs(stat_vec)))
    x = x_part + red.basis @ z
    return _package(problem, x, iterations, tol, stationarity)


def _reduced_rows(problem, red, x_part):
    """The inequalities a @ z <= d in the reduction's Cholesky coordinates,
    every row divided by the norm of its full row. The static rows come that
    way with the reduction. A separation row's three nonzeros, its
    coefficient, sit on the columns of one control point: its norm is the
    coefficient's, its row the unit coefficient times the point's 3 x k
    block of the basis (one batched (pairs, 3) @ (3, k) product per point),
    and its offset the coefficient's dot product with that point of x_part.
    """
    n_static = len(red.static_norms)
    coefficients = problem.separation_coefficients
    norms = np.sqrt(np.square(coefficients) @ np.ones(3))
    if not np.all(norms > 0.0):
        raise QpInfeasibleError("zero inequality row", 0)
    k = red.basis.shape[1]
    a = np.empty((len(problem.ineq_rhs), k))
    a[:n_static] = red.static_rows
    d = np.empty(len(problem.ineq_rhs))
    d[:n_static] = (problem.ineq_rhs[:n_static] - problem.ineq_matrix @ x_part) / red.static_norms
    if len(coefficients):
        blocks = red.basis.reshape(-1, 3, k)
        count = len(coefficients) // len(blocks)  # pairs; views below are point-major
        pairs = coefficients.reshape(count, -1, 3).transpose(1, 0, 2)
        out = a[n_static:].reshape(count, -1, k).transpose(1, 0, 2)
        np.matmul(pairs / norms.reshape(count, -1).T[..., None], blocks, out=out)
        offsets = np.matmul(pairs, x_part.reshape(-1, 3, 1))[..., 0].T.reshape(-1)
        d[n_static:] = (problem.ineq_rhs[n_static:] - offsets) / norms
    return a, d


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
    residuals = (report.max_equality_residual, report.max_inequality_violation, stationarity)
    if not all(value <= tol for value in residuals):  # NaN fails too
        raise QpInfeasibleError(
            f"solution outside tolerance (eq {solution.max_equality_residual:.2e}, "
            f"ineq {solution.max_inequality_violation:.2e}, "
            f"stat {solution.stationarity_residual:.2e})",
            iterations,
        )
    return solution


def _working_factor(a, working, iterations):
    """Complete QR factorisation of the transpose of the working rows
    a[working]: q (k x k), whose first len(working) columns span the rows
    and the rest their null space, and the inverse of the factor R."""
    if not working:
        return np.eye(a.shape[1]), np.zeros((0, 0))
    q, r = np.linalg.qr(a[working].T, mode="complete")
    try:
        return q, np.linalg.inv(r[: len(working)])
    except np.linalg.LinAlgError as exc:
        raise QpInfeasibleError(f"singular active-set system ({exc})", iterations) from exc


def _append_row(q, r_inv, row, iterations):
    """`_working_factor`'s factors with `row` appended, q updated in place: a
    Householder reflection of q's null-space columns maps the row's part
    there onto the first of them."""
    nw = len(r_inv)
    w = q.T @ row
    v = w[nw:].copy()
    norm = math.sqrt(float(v @ v))  # 0 for a dependent row, and once nw = k
    if norm == 0.0:
        raise QpInfeasibleError("singular active-set system (dependent row)", iterations)
    alpha = -math.copysign(norm, v[0])
    v[0] -= alpha
    q[:, nw:] -= (q[:, nw:] @ v)[:, None] * (v * (2.0 / float(v @ v)))
    grown = np.zeros((nw + 1, nw + 1))
    grown[:nw, :nw] = r_inv
    grown[:nw, nw] = -(r_inv @ w[:nw]) / alpha
    grown[nw, nw] = 1.0 / alpha
    return q, grown


def _active_set(a, g, slack, z, max_iterations):
    """Primal active-set iteration on min 0.5 z'z + g'z s.t. a z <= d, from
    a feasible z whose slacks d - a z are `slack` (updated in place).

    With working rows A = R'Q1' and Q = [Q1 Q2] orthogonal, the step is
    p = Q1 R^-T slack[W] - Q2 Q2'(z + g), which keeps A p = slack[W] to
    round-off however nearly dependent the rows are (the Gram system A A'
    would square their condition number); the slack term restores working
    rows to their boundaries, so epsilon-level drift cannot persist. At a
    zero step the multipliers are lam = -R^-1 (Q1'(z + g) + R^-T slack[W]).
    Blocking constraints enter by lowest row index among minimal step
    ratios; constraints leave by most negative multiplier. Returns (z,
    working rows, multipliers, iterations); raises QpInfeasibleError on a
    singular working set or an exhausted budget.
    """
    working: list[int] = []
    in_working = np.zeros(len(slack), dtype=bool)
    q, r_inv = _working_factor(a, working, 0)
    iterations = 0

    while iterations < max_iterations:
        iterations += 1
        nw = len(working)
        grad = z + g
        spanned, free = q[:, :nw], q[:, nw:]
        restore = r_inv.T @ slack[working]
        p = spanned @ restore - free @ (free.T @ grad)

        if float(abs(p).max()) <= 1e-11 * (1.0 + float(abs(z).max())):
            lam = -r_inv @ (spanned.T @ grad + restore)
            drop = int(np.argmin(lam)) if working else -1
            if drop < 0 or lam[drop] >= -1e-9:
                return z, working, lam, iterations
            in_working[working.pop(drop)] = False
            q, r_inv = _working_factor(a, working, iterations)
            continue

        # Rows with cp > 1e-12 and a ratio max(slack, 0) / cp below 1 + 4e-12
        # lie in `near`, so the step and the blocking row follow from it.
        cp = a @ p
        near = (cp > np.maximum(slack, 1e-12) * (1.0 - 4e-12)).nonzero()[0]
        candidates = near[~in_working[near] & (cp[near] > 1e-12)]
        ratios = np.maximum(slack[candidates], 0.0) / cp[candidates]
        step = min(1.0, float(ratios.min(initial=1.0)))
        z = z + step * p
        slack -= step * cp
        if step < 1.0:
            blocking = int(candidates[ratios <= step + 1e-12 * (1.0 + step)].min())
            working.append(blocking)
            in_working[blocking] = True
            q, r_inv = _append_row(q, r_inv, a[blocking], iterations)
    raise QpInfeasibleError("active-set iteration budget exhausted", iterations)
