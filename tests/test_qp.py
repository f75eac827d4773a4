from dataclasses import replace

import numpy as np
import pytest

from swarmplan.bernstein import BernsteinSegment, PiecewiseTrajectory, shift_for_initial
from swarmplan.corridor import advance_corridor, build_pair_separations
from swarmplan.errors import QpInfeasibleError
from swarmplan.geometry import EllipsoidModel
from swarmplan.params import PlanningParams
from swarmplan import qp
from swarmplan.qp import (
    QpProblem,
    assemble,
    basis_product_integrals,
    jerk_gram_matrix,
    param_matrices,
    solve,
    trajectory_from_values,
)
from swarmplan.world import OccupancyGrid

from helpers import neighbour_rows, pair_segments, random_trajectory, state_at
from oracles import (
    dense_inequalities,
    dense_reduced_rows,
    dense_residuals,
    gauss_legendre_integral,
    solve_by_kkt,
)


PARAMS = PlanningParams()


def empty_grid():
    return OccupancyGrid(0.1, (0, 0, 0), (3.0, 3.0, 2.0))


def hover(position, params=PARAMS, start_time=0.0):
    return shift_for_initial(
        None,
        position,
        segment_count=params.segment_count,
        degree=params.degree,
        segment_time=params.segment_time,
        start_time=start_time,
    )


def simple_problem(quadratic, linear, constant=0.0, eq=None, ineq=None):
    dim = len(linear)
    eq_m, eq_b = eq if eq else (np.zeros((0, dim)), np.zeros(0))
    in_m, in_b = ineq if ineq else (np.zeros((0, dim)), np.zeros(0))
    return QpProblem(
        quadratic=np.asarray(quadratic, float),
        linear=np.asarray(linear, float),
        constant=constant,
        eq_matrix=np.asarray(eq_m, float),
        eq_rhs=np.asarray(eq_b, float),
        ineq_matrix=np.asarray(in_m, float),
        ineq_rhs=np.asarray(in_b, float),
    )


class TestJerkGram:
    def test_matches_quadrature_time_domain(self):
        n, dt = 5, 0.2
        gram = jerk_gram_matrix(n, dt)
        d3 = 1.0  # third time-derivative of basis l via finite chain below
        from swarmplan.bernstein import BernsteinSegment

        # Numerical Gram: integrate products of third derivatives of the
        # scalar basis curves over [0, dt].
        def third_derivative(l):
            pts = np.zeros((n + 1, 3))
            pts[l, 0] = 1.0
            seg = BernsteinSegment(pts, dt)
            jerk = seg
            from swarmplan.bernstein import derivative

            for _ in range(3):
                jerk = derivative(jerk)
            return lambda t: jerk.eval(t / dt)[0]

        funcs = [third_derivative(l) for l in range(n + 1)]
        numeric = np.empty((n + 1, n + 1))
        for i in range(n + 1):
            for j in range(n + 1):
                numeric[i, j] = gauss_legendre_integral(
                    lambda t: funcs[i](t) * funcs[j](t), 0.0, dt
                )
        scale = np.max(np.abs(numeric))
        assert np.max(np.abs(gram - numeric)) <= 1e-8 * scale

    def test_unit_duration_absolute(self):
        # tau-domain check at unit duration where entries are O(1e3).
        n = 5
        gram = jerk_gram_matrix(n, 1.0)
        from swarmplan.bernstein import BernsteinSegment, derivative

        def jerk_fn(l):
            pts = np.zeros((n + 1, 3))
            pts[l, 0] = 1.0
            seg = BernsteinSegment(pts, 1.0)
            for _ in range(3):
                seg = derivative(seg)
            return lambda t: seg.eval(t)[0]

        funcs = [jerk_fn(l) for l in range(n + 1)]
        for i in range(n + 1):
            for j in range(i, n + 1):
                numeric = gauss_legendre_integral(
                    lambda t: funcs[i](t) * funcs[j](t), 0.0, 1.0
                )
                assert gram[i, j] == pytest.approx(numeric, abs=1e-8)

    def test_low_degree_zero(self):
        assert np.all(jerk_gram_matrix(2, 0.2) == 0.0)

    def test_product_integral_identity(self):
        # B[i, j] for degree 2: known closed values.
        b = basis_product_integrals(2)
        assert b[0, 0] == pytest.approx(0.2)
        assert np.allclose(b, b.T)


class TestAssemble:
    def test_row_count_audit(self):
        mats = param_matrices(PARAMS)
        assert mats.dim == 90
        assert mats.eq_matrix.shape == (60, 90)  # 9 initial + 36 continuity + 15 terminal
        assert mats.dyn_matrix.shape[0] == 270  # 150 velocity + 120 acceleration
        assert mats.box_matrix.shape[0] == 180
        assert mats.reduction.nullspace.shape == (90, 30)
        assert mats.reduction.static_rows.shape == (450, 30)
        assert np.array_equal(mats.ineq_matrix, np.vstack([mats.dyn_matrix, mats.box_matrix]))
        assert not mats.ineq_matrix.flags.writeable

    def test_static_rows_shared_not_copied(self):
        # Every step's problem reads the parameter set's one static block;
        # only the bounds and the separation coefficients are per step.
        grid = empty_grid()
        a = hover((1.0, 1.5, 1.0))
        pair = build_pair_separations(a, hover((2.0, 1.5, 1.0)), EllipsoidModel(0.3, 2.0))[0]
        corridor = advance_corridor(None, a, grid, PARAMS.agent_radius)
        for separations in ([], [pair], [pair, pair]):
            problem, _ = assemble(
                a, (2.5, 1.5, 1.0), corridor, *neighbour_rows(separations), PARAMS
            )
            assert problem.ineq_matrix is param_matrices(PARAMS).ineq_matrix
            assert len(problem.ineq_rhs) == 450 + 30 * len(separations)
            assert problem.separation_coefficients.shape == (30 * len(separations), 3)

    def test_candidate_satisfies_own_problem(self):
        grid = empty_grid()
        traj = hover((1.5, 1.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        problem, candidate = assemble(traj, (2.5, 2.5, 1.5), corridor, *neighbour_rows([]), PARAMS)
        report = problem.check(candidate)
        assert report.max_equality_residual <= 1e-12
        assert report.max_inequality_violation <= 1e-12

    def test_hover_at_goal_is_optimal(self):
        grid = empty_grid()
        goal = np.array([1.5, 1.5, 1.0])
        traj = hover(goal)
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        problem, candidate = assemble(traj, goal, corridor, *neighbour_rows([]), PARAMS)
        p = problem.quadratic
        scale = np.max(np.abs(p))
        assert np.max(np.abs(p - p.T)) <= 1e-12 * scale
        assert np.linalg.eigvalsh(p)[0] >= -1e-9 * scale
        # The jerk-block matvec cancels to absolute noise ~1e-9 at this scale.
        assert problem.objective(candidate) == pytest.approx(0.0, abs=1e-8)
        solution = solve(problem, warm_start=candidate)
        assert abs(solution.objective) <= 1e-8
        assert np.max(np.abs(solution.values - candidate)) < 1e-9

    def test_solution_moves_toward_goal(self):
        grid = empty_grid()
        traj = hover((0.5, 0.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        goal = np.array([2.5, 2.5, 1.0])
        problem, candidate = assemble(traj, goal, corridor, *neighbour_rows([]), PARAMS)
        solution = solve(problem, warm_start=candidate)
        assert solution.objective < problem.objective(candidate)
        out = trajectory_from_values(solution.values, PARAMS, 0.0)
        start_dist = np.linalg.norm(traj.eval(0.0) - goal)
        end_dist = np.linalg.norm(out.eval(out.end_time) - goal)
        assert end_dist < start_dist

    def test_separation_rows_present(self):
        grid = empty_grid()
        model = EllipsoidModel(0.3, 2.0)
        a = hover((1.0, 1.5, 1.0))
        b = hover((2.0, 1.5, 1.0))
        for_a, _ = build_pair_separations(a, b, model)
        corridor = advance_corridor(None, a, grid, PARAMS.agent_radius)
        problem, candidate = assemble(a, (2.5, 1.5, 1.0), corridor, *neighbour_rows([for_a]), PARAMS)
        n_static = param_matrices(PARAMS).reduction.static_rows.shape[0]
        assert len(problem.ineq_rhs) - n_static == 30
        report = problem.check(candidate)
        assert report.max_inequality_violation <= 0.0

    def test_separation_rows_match_per_segment_expression(self):
        # The batched set-up must give exactly the rows and right-hand side
        # of -(c_l . normal) <= -(anchors[l] . normal + margins[l]), with
        # the rows written out by the dense referee.
        rng = np.random.default_rng(54)
        grid = empty_grid()
        mine = random_trajectory(rng, scale=0.05)
        mine = PiecewiseTrajectory(
            [
                BernsteinSegment(s.control_points + [1.5, 1.5, 1.0], s.duration)
                for s in mine.segments
            ],
            0.0,
        )
        separations = []
        for _ in range(4):
            direction = rng.normal(size=3)
            other = hover(np.array([1.5, 1.5, 1.0]) + 1.5 * direction / np.linalg.norm(direction))
            model = EllipsoidModel(float(rng.uniform(0.2, 0.5)), 2.0)
            separations.append(build_pair_separations(mine, other, model, 1e-6)[0])
        corridor = advance_corridor(None, mine, grid, PARAMS.agent_radius)
        problem, _ = assemble(mine, (2.0, 1.0, 1.0), corridor, *neighbour_rows(separations), PARAMS)
        mats = param_matrices(PARAMS)
        rows = []
        rhs = []
        for pair in separations:
            for seg_index, seg in enumerate(pair_segments(pair)):
                offsets = seg.anchors @ seg.normal + seg.margins
                for l, offset in enumerate(offsets):
                    row = np.zeros(mats.dim)
                    point = seg_index * (PARAMS.degree + 1) + l
                    row[3 * point : 3 * point + 3] = -seg.normal
                    rows.append(row)
                    rhs.append(-offset)
        n_static = mats.reduction.static_rows.shape[0]
        assert np.array_equal(dense_inequalities(problem)[n_static:], np.array(rows))
        assert np.array_equal(problem.ineq_rhs[n_static:], np.array(rhs))

    def test_goal_only_changes_linear_term(self):
        # The repulsion goal shapes the objective, never the constraints.
        grid = empty_grid()
        traj = hover((1.5, 1.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        p1, _ = assemble(traj, (2.0, 1.0, 1.0), corridor, *neighbour_rows([]), PARAMS)
        p2, _ = assemble(traj, (0.4, 2.2, 0.6), corridor, *neighbour_rows([]), PARAMS)
        assert np.array_equal(p1.ineq_matrix, p2.ineq_matrix)
        assert np.array_equal(p1.ineq_rhs, p2.ineq_rhs)
        assert np.array_equal(p1.eq_matrix, p2.eq_matrix)
        assert np.array_equal(p1.eq_rhs, p2.eq_rhs)
        assert not np.array_equal(p1.linear, p2.linear)

    def test_shape_mismatch_rejected(self):
        grid = empty_grid()
        traj = hover((1.5, 1.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        other = PlanningParams(segment_count=4, goal_weights=(1, 1, 1, 1))
        with pytest.raises(ValueError):
            assemble(traj, (1, 1, 1), corridor, *neighbour_rows([]), other)


class TestSolve:
    def test_unconstrained_scalar(self):
        problem = simple_problem([[2.0]], [-6.0], 9.0)
        solution = solve(problem)
        assert solution.values[0] == pytest.approx(3.0, abs=1e-12)
        assert solution.objective == pytest.approx(0.0, abs=1e-12)

    def test_equality_only_matches_kkt_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            me = int(rng.integers(1, dim))
            m = rng.normal(size=(dim, dim))
            p = m @ m.T + np.eye(dim)
            q = rng.normal(size=dim)
            a = rng.normal(size=(me, dim))
            b = a @ rng.normal(size=dim)
            problem = simple_problem(p, q, eq=(a, b))
            solution = solve(problem)
            kkt = np.block([[p, a.T], [a, np.zeros((me, me))]])
            rhs = np.concatenate([-q, b])
            oracle = np.linalg.solve(kkt, rhs)[:dim]
            assert np.max(np.abs(solution.values - oracle)) < 1e-9

    def test_box_constrained_matches_clamping_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            dim = int(rng.integers(1, 8))
            target = rng.normal(size=dim) * 2
            lo = rng.uniform(-1.5, -0.2, size=dim)
            hi = rng.uniform(0.2, 1.5, size=dim)
            weights = rng.uniform(0.5, 3.0, size=dim)
            p = np.diag(2 * weights)
            q = -2 * weights * target
            ineq = (
                np.vstack([np.eye(dim), -np.eye(dim)]),
                np.concatenate([hi, -lo]),
            )
            problem = simple_problem(p, q, eq=None, ineq=ineq)
            solution = solve(problem, warm_start=np.zeros(dim))
            oracle = np.clip(target, lo, hi)
            assert np.max(np.abs(solution.values - oracle)) < 1e-8

    def test_active_inequality(self):
        # min (x-3)^2 s.t. x <= 1 -> x = 1.
        problem = simple_problem(
            [[2.0]], [-6.0], 9.0, ineq=(np.array([[1.0]]), np.array([1.0]))
        )
        solution = solve(problem, warm_start=np.zeros(1))
        assert solution.values[0] == pytest.approx(1.0, abs=1e-10)

    def test_residuals_recomputed(self):
        grid = empty_grid()
        traj = hover((0.5, 0.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        problem, candidate = assemble(traj, (2.5, 2.5, 1.0), corridor, *neighbour_rows([]), PARAMS)
        solution = solve(problem, warm_start=candidate)
        report = problem.check(solution.values)
        assert report.max_equality_residual == solution.max_equality_residual
        assert report.max_inequality_violation == solution.max_inequality_violation
        assert solution.max_equality_residual <= 1e-9
        assert solution.max_inequality_violation <= 1e-9

    def test_check_detects_perturbation(self):
        grid = empty_grid()
        traj = hover((0.5, 0.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        problem, candidate = assemble(traj, (2.5, 2.5, 1.0), corridor, *neighbour_rows([]), PARAMS)
        bumped = candidate.copy()
        bumped[0] += 1.0
        report = problem.check(bumped)
        assert report.max_violation() >= 0.9

    def test_deterministic(self):
        grid = empty_grid()
        traj = hover((0.5, 0.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        problem, candidate = assemble(traj, (2.5, 2.5, 1.0), corridor, *neighbour_rows([]), PARAMS)
        s1 = solve(problem, warm_start=candidate)
        s2 = solve(problem, warm_start=candidate)
        assert np.array_equal(s1.values, s2.values)
        assert s1.iterations == s2.iterations

    def test_never_worse_than_warm_start(self):
        rng = np.random.default_rng(52)
        grid = empty_grid()
        model = EllipsoidModel(0.3, 2.0)
        for _ in range(10):
            pa = rng.uniform([0.5, 0.5, 0.5], [2.5, 2.5, 1.5])
            pb = rng.uniform([0.5, 0.5, 0.5], [2.5, 2.5, 1.5])
            if np.linalg.norm((pa - pb) * [1, 1, 0.5]) < 0.4:
                continue
            a = hover(pa)
            b = hover(pb)
            for_a, _ = build_pair_separations(a, b, model)
            corridor = advance_corridor(None, a, grid, PARAMS.agent_radius)
            goal = rng.uniform([0.3, 0.3, 0.3], [2.7, 2.7, 1.7])
            problem, candidate = assemble(a, goal, corridor, *neighbour_rows([for_a]), PARAMS)
            solution = solve(problem, warm_start=candidate)
            assert solution.objective <= problem.objective(candidate) + 1e-6

    def test_sampled_derivatives_within_limits(self):
        grid = empty_grid()
        traj = hover((0.3, 0.3, 0.3))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        problem, candidate = assemble(traj, (2.7, 2.7, 1.7), corridor, *neighbour_rows([]), PARAMS)
        solution = solve(problem, warm_start=candidate)
        out = trajectory_from_values(solution.values, PARAMS, 0.0)
        for t in np.linspace(0.0, out.end_time, 200):
            _, vel, acc = state_at(out, float(t))
            assert np.all(np.abs(vel) <= np.array(PARAMS.max_velocity) + 1e-6)
            assert np.all(np.abs(acc) <= np.array(PARAMS.max_acceleration) + 1e-6)

    def test_zero_iteration_budget_reports_infeasible(self):
        problem = simple_problem([[2.0]], [-6.0], 9.0)
        with pytest.raises(QpInfeasibleError):
            solve(problem, max_iterations=0)

    def test_genuinely_infeasible_inequalities(self):
        # x <= -1 and -x <= -1 cannot both hold.
        problem = simple_problem(
            [[2.0]],
            [0.0],
            ineq=(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])),
        )
        with pytest.raises(QpInfeasibleError):
            solve(problem)

    def test_inconsistent_equalities(self):
        problem = simple_problem(
            [[2.0]],
            [0.0],
            eq=(np.array([[1.0], [1.0]]), np.array([0.0, 1.0])),
        )
        with pytest.raises(QpInfeasibleError):
            solve(problem)

    def test_random_inequality_problems_against_kkt_enumeration(self):
        # Small random QPs checked against brute-force enumeration of
        # active subsets of the inequality rows.
        rng = np.random.default_rng(53)
        from itertools import combinations

        for _ in range(40):
            dim = int(rng.integers(1, 4))
            mi = int(rng.integers(1, 5))
            m = rng.normal(size=(dim, dim))
            p = m @ m.T + np.eye(dim) * 0.5
            q = rng.normal(size=dim)
            g = rng.normal(size=(mi, dim))
            h = rng.uniform(0.1, 1.0, size=mi)  # origin feasible
            best = None
            for size in range(0, min(dim, mi) + 1):
                for subset in combinations(range(mi), size):
                    rows = g[list(subset)]
                    kkt = np.block(
                        [[p, rows.T], [rows, np.zeros((size, size))]]
                    )
                    rhs = np.concatenate([-q, h[list(subset)]])
                    try:
                        z = np.linalg.solve(kkt, rhs)
                    except np.linalg.LinAlgError:
                        continue
                    x, mu = z[:dim], z[dim:]
                    if np.any(mu < -1e-10):
                        continue
                    if np.any(g @ x - h > 1e-10):
                        continue
                    val = 0.5 * x @ p @ x + q @ x
                    if best is None or val < best[0]:
                        best = (val, x)
            problem = simple_problem(p, q, ineq=(g, h))
            solution = solve(problem, warm_start=np.zeros(dim))
            assert best is not None
            assert solution.objective == pytest.approx(best[0], abs=1e-8)
            assert np.max(np.abs(solution.values - best[1])) < 1e-6

    def test_infeasible_warm_start_raises(self):
        # There is no phase one: a start outside the constraints is refused,
        # not repaired.
        problem = simple_problem(
            [[2.0]], [-6.0], 9.0, ineq=(np.array([[1.0]]), np.array([1.0]))
        )
        with pytest.raises(QpInfeasibleError, match=r"violation 1\.000e\+00"):
            solve(problem, warm_start=np.array([2.0]))
        grid = empty_grid()
        traj = hover((0.5, 0.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        problem, candidate = assemble(traj, (2.5, 2.5, 1.0), corridor, *neighbour_rows([]), PARAMS)
        outside = candidate.copy()
        outside[0::3] = corridor.boxes[0].hi[0] + 0.5  # every point, same x
        with pytest.raises(QpInfeasibleError, match="start point is infeasible"):
            solve(problem, warm_start=outside)

    def test_zero_inequality_row_raises(self):
        # A row of zero norm has no direction to normalise; it is refused
        # whatever its bound, not filtered out.
        for bound in (1.0, 0.0, -1.0):
            problem = simple_problem(
                [[2.0]],
                [-6.0],
                9.0,
                ineq=(np.array([[1.0], [0.0]]), np.array([5.0, bound])),
            )
            with pytest.raises(QpInfeasibleError, match="zero inequality row"):
                solve(problem, warm_start=np.zeros(1))

    def test_degenerate_start_solves_or_raises(self):
        # The start lies on one face carried by six rows: five copies of a
        # row and a parallel multiple of it. All six block the first step at
        # ratio zero. The solver must reach the KKT point of the face or
        # refuse; it never returns a point outside tolerance.
        rng = np.random.default_rng(57)
        solved = 0
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            m = rng.normal(size=(dim, dim))
            p = m @ m.T + np.eye(dim) * 0.5
            a = rng.normal(size=dim)
            start = rng.normal(size=dim)
            b = float(a @ start)
            # Unconstrained minimum, mostly on the far side of the face.
            target = start + rng.uniform(0.0, 2.0) * a + rng.normal(size=dim)
            q = -p @ target
            kkt = np.block([[p, a[:, None]], [a[None, :], np.zeros((1, 1))]])
            z = np.linalg.solve(kkt, np.concatenate([-q, [b]]))
            expected = z[:dim] if z[dim] > 0 else target
            rows = np.vstack([np.tile(a, (5, 1)), 2.0 * a])
            problem = simple_problem(p, q, ineq=(rows, np.array([b] * 5 + [2.0 * b])))
            try:
                solution = solve(problem, warm_start=start)
            except QpInfeasibleError:
                continue
            solved += 1
            assert np.max(np.abs(solution.values - expected)) < 1e-6
            assert problem.check(solution.values).max_inequality_violation <= 1e-6
        assert solved > 0

    def test_singular_active_set_system_raises(self, monkeypatch):
        # A row entering the working set in the span of the rows already
        # there (here a zero row, in every span) leaves the triangular
        # factor singular and is refused at its first entry.
        sizes = []
        real = qp._append_row

        def dependent(q, r_inv, row, iterations):
            sizes.append(len(r_inv))
            return real(q, r_inv, np.zeros_like(row), iterations)

        monkeypatch.setattr(qp, "_append_row", dependent)
        grid = empty_grid()
        traj = hover((0.5, 0.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        problem, candidate = assemble(traj, (2.5, 2.5, 1.0), corridor, *neighbour_rows([]), PARAMS)
        with pytest.raises(QpInfeasibleError, match="singular active-set system"):
            solve(problem, warm_start=candidate)
        assert sizes == [0]

    def test_singular_refactorisation_raises(self, monkeypatch):
        # After a drop the working set is factored afresh by QR; a singular
        # triangular factor there is refused too.
        real_qr = np.linalg.qr

        def singular_qr(m, mode):
            q, r = real_qr(m, mode=mode)
            r[m.shape[1] - 1, m.shape[1] - 1] = 0.0
            return q, r

        monkeypatch.setattr(np.linalg, "qr", singular_qr)
        rows = np.random.default_rng(58).normal(size=(3, 5))
        with pytest.raises(QpInfeasibleError, match="singular active-set system"):
            qp._working_factor(rows, [0, 1, 2], 4)

    def test_row_entering_a_full_working_set_raises(self):
        # k working rows span the whole space: any further row is dependent.
        rows = np.random.default_rng(59).normal(size=(4, 3))
        q, r_inv = qp._working_factor(rows, [0, 1, 2], 0)
        with pytest.raises(QpInfeasibleError, match="dependent row"):
            qp._append_row(q, r_inv, rows[3], 5)

    def test_non_finite_result_raises(self, monkeypatch):
        # An iterate poisoned by a numerical failure is refused by the
        # full-space re-check: NaN residuals never compare within tolerance.
        real = qp._active_set

        def poisoned(*args):
            z, working, lam, iterations = real(*args)
            return np.full_like(z, np.nan), working, lam, iterations

        monkeypatch.setattr(qp, "_active_set", poisoned)
        grid = empty_grid()
        traj = hover((0.5, 0.5, 1.0))
        corridor = advance_corridor(None, traj, grid, PARAMS.agent_radius)
        problem, candidate = assemble(traj, (2.5, 2.5, 1.0), corridor, *neighbour_rows([]), PARAMS)
        with pytest.raises(QpInfeasibleError, match="solution outside tolerance"):
            solve(problem, warm_start=candidate)

    def test_shared_reduction_matches_generic(self):
        # Planner problems carry the parameter set's reduction with its
        # static rows; solving them with a reduction built from the problem
        # alone must give the same point.
        rng = np.random.default_rng(55)
        grid = empty_grid()
        model = EllipsoidModel(0.3, 2.0)
        solved = 0
        for _ in range(8):
            pa = rng.uniform([0.5, 0.5, 0.5], [2.5, 2.5, 1.5])
            pb = rng.uniform([0.5, 0.5, 0.5], [2.5, 2.5, 1.5])
            if np.linalg.norm((pa - pb) * [1, 1, 0.5]) < 0.4:
                continue
            a = hover(pa)
            separations = [build_pair_separations(a, hover(pb), model, 1e-6)[0]]
            corridor = advance_corridor(None, a, grid, PARAMS.agent_radius)
            goal = rng.uniform([0.3, 0.3, 0.3], [2.7, 2.7, 1.7])
            problem, candidate = assemble(a, goal, corridor, *neighbour_rows(separations), PARAMS)
            assert problem.reduction is param_matrices(PARAMS).reduction
            shared = solve(problem, warm_start=candidate)
            generic = solve(replace(problem, reduction=None), warm_start=candidate)
            assert np.max(np.abs(shared.values - generic.values)) <= 1e-9
            assert shared.objective == pytest.approx(generic.objective, abs=1e-9)
            solved += 1
        assert solved >= 5


def dense_setup(problem, red, x_part):
    """The dense referee, told the static blocks of a planner reduction."""
    mats = param_matrices(PARAMS)
    blocks = (mats.dyn_matrix, mats.box_matrix) if red is mats.reduction else ()
    return dense_reduced_rows(problem, red, x_part, blocks)


class TestStructuredRows:
    @pytest.mark.parametrize(
        "workload, separations",
        [("circle-1", 0), ("circle-2", 1), ("indoor-8", 7), ("circle-32", 31)],
    )
    def test_matches_dense_setup_bitwise(self, recorded_steps, workload, separations):
        # Recorded planner problems: the rows in Cholesky coordinates, taken
        # back to y by the factor, and the offsets d agree with the dense
        # set-up in y (full-row norms, `ineq_matrix @ x_part`) to round-off,
        # not bit for bit: solve takes each separation row's norm and offset
        # from its 3-vector coefficient.
        _, problems = recorded_steps[workload]
        assert problems
        for problem, candidate, params in problems:
            assert params == PARAMS
            assert len(problem.separation_coefficients) == 30 * separations
            red = problem.reduction
            x_part = red.pinv @ problem.eq_rhs
            a, d = qp._reduced_rows(problem, red, x_part)
            c_ref, d_ref = dense_setup(problem, red, x_part)
            assert np.max(np.abs(a @ red.factor.T - c_ref)) <= 1e-12
            assert np.max(np.abs(d - d_ref)) <= 1e-12 * (1.0 + np.max(np.abs(d_ref)))

    @pytest.mark.parametrize("workload", ["circle-1", "circle-2", "indoor-8", "circle-32"])
    def test_matches_kkt_oracle(self, recorded_steps, workload):
        # Recorded planner problems solved in Cholesky coordinates and by
        # the (k+|W|)-square KKT iteration in y on the dense set-up: both
        # pass the full-space re-check and reach the same point.
        _, problems = recorded_steps[workload]
        assert problems
        mats = param_matrices(PARAMS)
        blocks = (mats.dyn_matrix, mats.box_matrix)
        tol = PARAMS.qp_tolerance
        for problem, candidate, _ in problems:
            got = solve(problem, tol, candidate, PARAMS.qp_max_iterations)
            x, iterations, stationarity = solve_by_kkt(
                problem, problem.reduction, blocks, candidate, PARAMS.qp_max_iterations
            )
            ref = qp._package(problem, x, iterations, tol, stationarity)
            assert np.max(np.abs(got.values - ref.values)) <= 1e-7
            assert abs(got.objective - ref.objective) <= tol

    @pytest.mark.parametrize("workload", ["circle-1", "circle-2", "indoor-8", "circle-32"])
    def test_check_matches_dense_residuals(self, recorded_steps, workload):
        # Recorded planner problems at their candidates and at points moved
        # off them: the residuals check takes from the constraint structure
        # equal the dense referee's to round-off, and so does their maximum.
        _, problems = recorded_steps[workload]
        assert problems
        rng = np.random.default_rng(61)
        for problem, candidate, _ in problems:
            scale = 1.0 + float(np.max(np.abs(problem.ineq_rhs)))
            for x in (candidate, candidate + rng.normal(scale=0.05, size=candidate.shape)):
                got = problem.inequality_residuals(x)
                ref = dense_residuals(problem, x)
                assert got.shape == ref.shape == (problem.ineq_rhs.shape)
                assert np.max(np.abs(got - ref)) <= 1e-12 * scale
                worst = problem.check(x).max_inequality_violation
                assert abs(worst - float(np.max(ref))) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "group", ["velocity limit", "acceleration limit", "box face", "separation plane"]
    )
    def test_check_reports_a_push_across_one_row(self, recorded_steps, group):
        # A candidate moved along one row's normal until it lies 1e-3 past
        # that row's bound is reported by the structured check and by the
        # dense referee alike.
        _, problems = recorded_steps["circle-2"]
        problem, candidate, _ = problems[-1]
        n_vel = 6 * PARAMS.segment_count * PARAMS.degree
        n_acc = 6 * PARAMS.segment_count * (PARAMS.degree - 1)
        n_static = len(problem.ineq_matrix)
        first, stop = {
            "velocity limit": (0, n_vel),
            "acceleration limit": (n_vel, n_vel + n_acc),
            "box face": (n_vel + n_acc, n_static),
            "separation plane": (n_static, len(problem.ineq_rhs)),
        }[group]
        assert stop - first in (150, 120, 180, 30)
        row_index = (first + stop) // 2
        row = dense_inequalities(problem)[row_index]
        slack = -dense_residuals(problem, candidate)[row_index]
        assert slack >= 0.0
        pushed = candidate + (slack + 1e-3) * row / (row @ row)
        for residuals in (problem.inequality_residuals(pushed), dense_residuals(problem, pushed)):
            assert residuals[row_index] == pytest.approx(1e-3, abs=1e-9)
        assert problem.check(candidate).max_inequality_violation <= 1e-9
        assert problem.check(pushed).max_inequality_violation >= 1e-3 - 1e-9

    def test_static_rows_are_stored_normalised(self):
        # Stored in Cholesky coordinates: the factor takes the rows and the
        # basis back to the normalised reduced rows and the nullspace.
        mats = param_matrices(PARAMS)
        red = mats.reduction
        blocks = (mats.dyn_matrix, mats.box_matrix)
        norms = np.linalg.norm(np.vstack(blocks), axis=1)
        reduced = np.vstack([block @ red.nullspace for block in blocks])
        hessian = red.nullspace.T @ mats.quadratic @ red.nullspace / red.sigma
        assert np.array_equal(red.static_norms, norms)
        assert np.max(np.abs(red.static_rows @ red.factor.T - reduced / norms[:, None])) <= 1e-13
        assert np.max(np.abs(red.basis @ red.factor.T - red.nullspace)) <= 1e-13
        assert np.max(np.abs(red.factor @ red.factor.T - hessian)) <= 1e-13
        assert np.array_equal(red.factor, np.tril(red.factor))
        assert red.basis.shape == (90, 30) and red.basis.flags.c_contiguous

    def test_zero_separation_row_raises(self):
        # A separation row of zero norm is refused like any other.
        grid = empty_grid()
        a = hover((1.0, 1.5, 1.0))
        model = EllipsoidModel(0.3, 2.0)
        corridor = advance_corridor(None, a, grid, PARAMS.agent_radius)
        pair = build_pair_separations(a, hover((2.0, 1.5, 1.0)), model)[0]
        problem, candidate = assemble(a, (2.5, 1.5, 1.0), corridor, *neighbour_rows([pair, pair]), PARAMS)
        n_static = len(problem.reduction.static_norms)
        problem.separation_coefficients[31] = 0.0
        assert not np.any(dense_inequalities(problem)[n_static + 31])
        with pytest.raises(QpInfeasibleError, match="zero inequality row"):
            solve(problem, warm_start=candidate)
