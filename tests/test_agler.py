import numpy as np
import pytest

from picklab import agler, disk, matcore, oracle
from picklab.errors import BudgetError, DimensionError, DomainError


def cg(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def contraction(rng, n, bound=0.6):
    M = cg(rng, n, n)
    return M * (bound / matcore.operator_norm(M))


def assert_witness(prob, Lam):
    """Hand check of a Farkas witness: Lam Hermitian, Lam - T_k* Lam T_k PSD
    for block-diagonal T_k built block by block, and tr(Lam R) < 0."""
    N, m = prob.conditions, prob.block_dim
    assert np.array_equal(Lam, Lam.conj().T)
    R = np.zeros((N * m, N * m), dtype=complex)
    for i in range(N):
        for j in range(N):
            R[i * m:(i + 1) * m, j * m:(j + 1) * m] = (
                prob.directions[i] @ prob.directions[j].conj().T
                - prob.targets[i] @ prob.targets[j].conj().T)
    for k in range(prob.d):
        Tk = np.zeros((N * m, N * m), dtype=complex)
        for i in range(N):
            Tk[i * m:(i + 1) * m, i * m:(i + 1) * m] = prob.tuples[i][k]
        W = Lam - Tk.conj().T @ Lam @ Tk
        assert np.linalg.eigvalsh((W + W.conj().T) / 2)[0] >= 0
    assert np.trace(Lam @ R).real < 0


def schur_factor(rng):
    """0.7 e^(i theta) (z - a) / (1 - conj(a) z) with |a| <= 0.5."""
    a = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
    c = 0.7 * np.exp(2j * np.pi * rng.uniform())
    return lambda z: c * (z - a) / (1 - np.conj(a) * z)


def bidisk_points(rng, N):
    return 0.6 * np.sqrt(rng.uniform(size=(N, 2))) \
        * np.exp(2j * np.pi * rng.uniform(size=(N, 2)))


FEASIBLE_POINTS = [[0.0, 0.0], [0.5, 0.0]]
FEASIBLE_VALUES = [0.0, 0.5]  # from f(lam) = lam_1
INFEASIBLE_POINTS = [[0.0, 0.0], [0.0, 0.0]]
INFEASIBLE_VALUES = [0.0, 0.5]


class TestConstraintPieces:
    def test_rhs_equal_directions_zero(self):
        rng = np.random.default_rng(0)
        X = [cg(rng, 2, 2) for _ in range(2)]
        T = [[contraction(rng, 2) for _ in range(2)] for _ in range(2)]
        prob = agler.nc_ltoa_problem(T, X, X)
        assert np.max(np.abs(agler.constraint_rhs(prob))) == 0.0

    def test_rhs_zero_function_all_ones(self):
        prob = agler.scalar_problem([[0.1, 0.2], [0.3, -0.1]], [0.0, 0.0])
        assert np.allclose(agler.constraint_rhs(prob), np.ones((2, 2)))

    def test_rhs_hand_evaluated(self):
        prob = agler.scalar_problem(INFEASIBLE_POINTS, INFEASIBLE_VALUES)
        assert np.allclose(agler.constraint_rhs(prob), [[1, 1], [1, 0.75]])

    def test_apply_constraint_zero_kernels(self):
        prob = agler.scalar_problem(FEASIBLE_POINTS, FEASIBLE_VALUES)
        Ks = [np.zeros((2, 2))] * 2
        assert np.max(np.abs(agler.apply_constraint(Ks, prob))) == 0.0

    def test_apply_constraint_d1_scalar_form(self):
        pts = [[0.3], [0.2j]]
        prob = agler.scalar_problem(pts, [0.1, 0.0])
        rng = np.random.default_rng(1)
        K = matcore.hermitize(cg(rng, 2, 2))
        out = agler.apply_constraint([K], prob)
        lam = np.array([0.3, 0.2j])
        expect = K * (1 - lam[:, None] * lam[None, :].conj())
        assert np.max(np.abs(out - expect)) <= 1e-14

    def test_apply_constraint_zero_tuples_sums_kernels(self):
        T = [[np.zeros((1, 1))] * 2, [np.zeros((1, 1))] * 2]
        prob = agler.nc_ltoa_problem(T, [np.eye(1)] * 2, [np.zeros((1, 1))] * 2)
        rng = np.random.default_rng(2)
        K1 = matcore.hermitize(cg(rng, 2, 2))
        K2 = matcore.hermitize(cg(rng, 2, 2))
        assert np.max(np.abs(agler.apply_constraint([K1, K2], prob)
                             - (K1 + K2))) <= 1e-14

    def test_stacked_pieces_match_per_block_loop(self):
        rng = np.random.default_rng(9)
        N, m, d = 3, 2, 2
        T = [[contraction(rng, m) for _ in range(d)] for _ in range(N)]
        X = [cg(rng, m, 3) for _ in range(N)]
        Y = [0.3 * cg(rng, m, 3) for _ in range(N)]
        prob = agler.nc_ltoa_problem(T, X, Y)
        Ks = [cg(rng, N * m, N * m) for _ in range(d)]
        apply_ref = np.zeros((N * m, N * m), dtype=complex)
        rhs_ref = np.zeros((N * m, N * m), dtype=complex)
        for i in range(N):
            for j in range(N):
                blk = (slice(i * m, (i + 1) * m), slice(j * m, (j + 1) * m))
                rhs_ref[blk] = X[i] @ X[j].conj().T - Y[i] @ Y[j].conj().T
                for k in range(d):
                    apply_ref[blk] += (Ks[k][blk]
                                       - T[i][k] @ Ks[k][blk] @ T[j][k].conj().T)
        assert np.max(np.abs(agler.apply_constraint(Ks, prob) - apply_ref)) <= 1e-13
        assert np.max(np.abs(agler.constraint_rhs(prob) - rhs_ref)) <= 1e-13

    def test_linearity(self):
        prob = agler.scalar_problem(FEASIBLE_POINTS, FEASIBLE_VALUES)
        rng = np.random.default_rng(3)
        A1 = [cg(rng, 2, 2) for _ in range(2)]
        A2 = [cg(rng, 2, 2) for _ in range(2)]
        a, b = 1.3 - 0.2j, -0.7j
        lhs = agler.apply_constraint(
            [a * A1[k] + b * A2[k] for k in range(2)], prob)
        rhs = (a * agler.apply_constraint(A1, prob)
               + b * agler.apply_constraint(A2, prob))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


class TestSolver:
    def test_feasible_bidisk_fixture(self):
        prob = agler.scalar_problem(FEASIBLE_POINTS, FEASIBLE_VALUES)
        rep = agler.solve_feasibility(prob, tol=1e-6, max_iter=10000)
        assert rep.status == "feasible_with_certificate"
        assert rep.iterations <= 10000
        res, eigs = agler.verify_certificate(prob, rep.certificate.kernels)
        assert res <= 2e-6
        assert min(eigs) >= -2e-6
        # the hand-checked certificate: K_1 = all-ones, K_2 = 0
        assert np.max(np.abs(rep.certificate.kernels[0]
                             - np.ones((2, 2)))) <= 1e-3
        assert np.max(np.abs(rep.certificate.kernels[1])) <= 1e-3

    def test_infeasible_forced_sum_fixture(self):
        prob = agler.scalar_problem(INFEASIBLE_POINTS, INFEASIBLE_VALUES)
        rep = agler.solve_feasibility(prob, tol=1e-6, max_iter=10000)
        assert rep.status == "infeasible_evidence"
        assert rep.gap_estimate >= 1e-3
        assert rep.iterations <= 5
        assert_witness(prob, rep.witness)
        # the affine set forces K_1 + K_2 = [[1, 1], [1, 3/4]], not PSD
        assert matcore.min_eigenvalue([[1, 1], [1, 0.75]]) < 0

    def test_certificate_verification_matches_solver(self):
        prob = agler.scalar_problem(FEASIBLE_POINTS, FEASIBLE_VALUES)
        rep = agler.solve_feasibility(prob, tol=1e-6)
        res, _ = agler.verify_certificate(prob, rep.certificate.kernels)
        assert res == pytest.approx(rep.certificate.residual_norm, abs=1e-12)

    def test_perturbed_certificate_residual_grows_linearly(self):
        prob = agler.scalar_problem(FEASIBLE_POINTS, FEASIBLE_VALUES)
        rep = agler.solve_feasibility(prob, tol=1e-6)
        Ks = [K.copy() for K in rep.certificate.kernels]
        eps = 1e-3
        base = agler.apply_constraint(Ks, prob)
        Ks[0] = Ks[0] + eps * np.eye(2)
        bumped = agler.apply_constraint(Ks, prob)
        lam = np.asarray(FEASIBLE_POINTS, dtype=complex)
        predicted = eps * np.eye(2) * (1 - lam[:, 0:1] @ lam[:, 0:1].conj().T)
        predicted = eps * np.diag(1 - np.abs(lam[:, 0]) ** 2)
        assert np.max(np.abs((bumped - base)
                             - np.diag(eps * (1 - np.abs(lam[:, 0]) ** 2)))) \
            <= 1e-12

    def test_monotone_combined_distance(self):
        for pts, vals in [(FEASIBLE_POINTS, FEASIBLE_VALUES),
                          (INFEASIBLE_POINTS, INFEASIBLE_VALUES)]:
            prob = agler.scalar_problem(pts, vals)
            rep = agler.solve_feasibility(prob, tol=1e-6, max_iter=800,
                                          keep_history=True)
            h = rep.history
            assert all(h[k + 1] <= h[k] + 1e-10 for k in range(len(h) - 1))

    def test_zero_problem_zero_certificate(self):
        prob = agler.scalar_problem([[0.0, 0.0]], [0.0])
        Ks = [np.zeros((1, 1))] * 2
        res, eigs = agler.verify_certificate(prob, Ks)
        assert res == pytest.approx(1.0)  # rhs is 1, zero kernels miss it
        rep = agler.solve_feasibility(prob, tol=1e-8)
        assert rep.status == "feasible_with_certificate"

    def test_d1_equivalence_sample(self):
        rng = np.random.default_rng(4)
        agree = 0
        for t in range(10):
            lams = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
            if t % 2 == 0:
                s = oracle.sample_contractive_poly(1, 1, 2, "disk", seed=50 + t)
                vals = [oracle.eval_point(s, l)[0, 0] for l in lams]
            else:
                vals = list(2.0 * rng.uniform(0.6, 1.0, 2)
                            * np.exp(2j * np.pi * rng.uniform(0, 1, 2)))
            pick = disk.pick_fov(lams, [[[v]] for v in vals])
            prob = agler.scalar_problem(lams.reshape(-1, 1), vals)
            rep = agler.solve_feasibility(prob, tol=1e-6, max_iter=2000)
            if pick.verdict.is_psd:
                agree += rep.status == "feasible_with_certificate"
            else:
                agree += rep.status in ("infeasible_evidence", "unknown") \
                    if pick.min_eigenvalue > -1e-6 \
                    else rep.status == "infeasible_evidence"
            if rep.status == "infeasible_evidence":
                assert_witness(prob, rep.witness)
        assert agree == 10

    @pytest.mark.parametrize("N, m", [(2, 1), (3, 1), (2, 2)])
    def test_modulus_above_one_has_witness(self, N, m):
        # scalar bidisk values of modulus 1.5, or operator data Y_i = 1.5 X_i
        rng = np.random.default_rng(10 + N + m)
        if m == 1:
            prob = agler.scalar_problem(
                bidisk_points(rng, N), 1.5 * np.exp(2j * np.pi * rng.uniform(size=N)))
        else:
            X = [cg(rng, m, 2) for _ in range(N)]
            prob = agler.nc_ltoa_problem(
                [[contraction(rng, m) for _ in range(2)] for _ in range(N)],
                X, [1.5 * Xi for Xi in X])
        rep = agler.solve_feasibility(prob)
        assert rep.status == "infeasible_evidence"
        assert_witness(prob, rep.witness)
        trace, eigs = agler.verify_witness(prob, rep.witness)
        assert trace < 0 and min(eigs) >= 0
        # Lam - c I with c (1 - rho^2) > (1 + rho^2) ||Lam||, rho <= 0.6, is
        # outside the dual cone: every Lam - T_k* Lam T_k is negative definite
        c = 4 * np.linalg.norm(rep.witness)
        _, eigs = agler.verify_witness(prob, rep.witness - c * np.eye(N * m))
        assert max(eigs) < 0

    @pytest.mark.parametrize("tol, max_iter", [(1e-6, 2000), (0.0, 300)])
    def test_feasible_products_never_get_a_witness(self, tol, max_iter):
        # s(z_1) t(z_2) with s, t disk Schur functions is Agler (Ando)
        rng = np.random.default_rng(11)
        for N in (2, 3, 3, 4, 4, 5):
            pts = bidisk_points(rng, N)
            s, t = schur_factor(rng), schur_factor(rng)
            rep = agler.solve_feasibility(
                agler.scalar_problem(pts, s(pts[:, 0]) * t(pts[:, 1])),
                tol=tol, max_iter=max_iter)
            assert rep.status != "infeasible_evidence"
            assert rep.witness is None

    def test_nc_d1_unique_affine_point_is_stein_kernel(self):
        rng = np.random.default_rng(5)
        T = [[contraction(rng, 2)] for _ in range(2)]
        X = [cg(rng, 2, 2) for _ in range(2)]
        Y = [cg(rng, 2, 2) * 0.2 for _ in range(2)]
        prob = agler.nc_ltoa_problem(T, X, Y)
        rep = agler.solve_feasibility(prob, tol=1e-6)
        pick = disk.pick_ltoa([t[0] for t in T], X, Y)
        if rep.status == "feasible_with_certificate":
            assert np.max(np.abs(rep.certificate.kernels[0] - pick.pick)) <= 1e-4
        assert (rep.status == "feasible_with_certificate") \
            == pick.verdict.is_psd

    def test_extremal_fixture_takes_few_newton_steps(self):
        prob = agler.scalar_problem(FEASIBLE_POINTS, FEASIBLE_VALUES)
        rep = agler.solve_feasibility(prob, tol=1e-6, max_iter=50)
        assert rep.status == "feasible_with_certificate"
        assert rep.iterations <= 50

    def test_zero_tol_on_extremal_data_stops_at_rounding_level(self):
        # the solution set has no interior, so the duality gap only reaches
        # rounding level; the solve must stop there, not run to max_iter
        prob = agler.scalar_problem(FEASIBLE_POINTS, FEASIBLE_VALUES)
        rep = agler.solve_feasibility(prob, tol=0.0, max_iter=10000,
                                      keep_history=True)
        assert rep.status != "infeasible_evidence"
        assert rep.iterations <= 50
        assert rep.history[-1] <= 1e-12

    def test_six_point_oracle_product_is_certified(self):
        # s(z_1) t(z_2), s and t oracle polynomials of norm 0.9, at points
        # of radius up to 0.8: the N = 6 problem of the sequence N = 1..6
        # drawn from default_rng(0), easy data that a first-order method
        # leaves undecided after 10000 iterations
        rng = np.random.default_rng(0)
        for N in range(1, 7):
            pts = 0.8 * rng.uniform(size=(N, 2)) \
                * np.exp(2j * np.pi * rng.uniform(size=(N, 2)))
            s, t = (oracle.sample_contractive_poly(1, 1, 2, "disk", seed=rng,
                                                   target=0.9) for _ in range(2))
            vals = [oracle.eval_point(s, z1)[0, 0] * oracle.eval_point(t, z2)[0, 0]
                    for z1, z2 in pts]
        prob = agler.scalar_problem(pts, vals)
        rep = agler.solve_feasibility(prob)
        assert rep.status == "feasible_with_certificate"
        res, eigs = agler.verify_certificate(prob, rep.certificate.kernels)
        assert res <= 1e-6 and min(eigs) >= -1e-6

    @pytest.mark.parametrize("N, m", [(3, 2), (6, 2), (2, 3), (3, 3), (4, 3)])
    def test_operator_data_certificate_and_witness(self, N, m):
        # Y_i = (X_i S)^L(T_1^(i)) for a disk polynomial S of norm < 1 is
        # Agler data; Y_i = 1.5 X_i is not
        rng = np.random.default_rng(7)
        s = oracle.sample_contractive_poly(2, 2, 2, "disk", seed=7)
        T, X = [], []
        for _ in range(N):
            T.append([contraction(rng, m), contraction(rng, m)])
            X.append(cg(rng, m, 2))
        prob = agler.nc_ltoa_problem(
            T, X, [oracle.eval_ltoa(s, Xi, Ti[0]) for Xi, Ti in zip(X, T)])
        rep = agler.solve_feasibility(prob)
        assert rep.status == "feasible_with_certificate"
        res, eigs = agler.verify_certificate(prob, rep.certificate.kernels)
        assert res <= 1e-6 and min(eigs) >= -1e-6
        prob = agler.nc_ltoa_problem(T, X, [1.5 * Xi for Xi in X])
        rep = agler.solve_feasibility(prob)
        assert rep.status == "infeasible_evidence"
        assert_witness(prob, rep.witness)
        trace, eigs = agler.verify_witness(prob, rep.witness)
        assert trace < 0 and min(eigs) >= 0

    def test_schur_budget_binds_only_when_a_newton_step_is_due(self):
        # N m = 27: (N m)^4 entries exceed the budget.  With f = 0 the start
        # is the PSD Pick kernel and decides; with f_0 = 1.2 it is neither
        # PSD nor met by a witness, so a Newton step, and its Schur
        # complement, is due
        z = 0.5 * np.exp(2j * np.pi * np.arange(27) / 27)[:, None]
        rep = agler.solve_feasibility(agler.scalar_problem(z, np.zeros(27)))
        assert (rep.status, rep.iterations) == ("feasible_with_certificate", 1)
        f = np.zeros(27)
        f[0] = 1.2
        with pytest.raises(BudgetError, match="Schur complement"):
            agler.solve_feasibility(agler.scalar_problem(z, f))

    def test_budget_guard(self):
        rng = np.random.default_rng(6)
        n, N = 8, 13  # 2 * (13 * 8)^2 = 21632 > 20000
        T = [[contraction(rng, n), contraction(rng, n)] for _ in range(N)]
        X = [cg(rng, n, 1) for _ in range(N)]
        with pytest.raises(BudgetError):
            agler.solve_feasibility(agler.nc_ltoa_problem(T, X, X))

    def test_nc_necessity_single_variable_embedding(self):
        rng = np.random.default_rng(7)
        s = oracle.sample_contractive_poly(2, 2, 2, "disk", seed=99)
        tuples, X, Y = [], [], []
        for i in range(2):
            T1 = contraction(rng, 2)
            T2 = contraction(rng, 2)
            Xi = cg(rng, 2, 2)
            tuples.append([T1, T2])
            X.append(Xi)
            Y.append(oracle.eval_ltoa(s, Xi, T1))
        prob = agler.nc_ltoa_problem(tuples, X, Y)
        rep = agler.solve_feasibility(prob, tol=1e-6)
        assert rep.status == "feasible_with_certificate"

    def test_point_domain_checks(self):
        with pytest.raises(DomainError):
            agler.scalar_problem([[1.0, 0.0]], [0.0])
        with pytest.raises(DomainError):
            agler.nc_ltoa_problem([[np.eye(2)]], [np.eye(2)], [np.eye(2)])

    @pytest.mark.parametrize("i, k", [(0, 0), (1, 1), (2, 2)])
    def test_tuple_entry_checks(self, i, k):
        # three conditions of three variables: the bad entry sits at the
        # first, a middle or the last (condition, variable) position
        rng = np.random.default_rng(12)

        def problem(bad):
            tuples = [[contraction(rng, 2) for _ in range(3)] for _ in range(3)]
            tuples[i][k] = bad
            X = [cg(rng, 2, 2) for _ in range(3)]
            return agler.nc_ltoa_problem(tuples, X, X)

        # norm exactly 1 with spectral radius 0, and norm above 1
        for bad in (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.5 * np.eye(2)):
            with pytest.raises(DomainError, match="strict contractions"):
                problem(bad)
        with pytest.raises(DimensionError, match="share one dimension"):
            problem(0.5 * np.eye(3))

    def test_nc_rd_expansion_shapes(self):
        rng = np.random.default_rng(8)
        Z = [[contraction(rng, 2), contraction(rng, 2)]]
        W = [cg(rng, 2, 2) * 0.3]
        prob = agler.nc_rd_problem(Z, W)
        assert prob.conditions == 2  # N * kappa = 1 * 2
        R = agler.constraint_rhs(prob)
        e = np.eye(2, dtype=complex)
        for ip in range(2):
            for jp in range(2):
                E = e[:, ip:ip + 1] @ e[:, jp:jp + 1].conj().T
                expect = E - W[0] @ E @ W[0].conj().T
                blk = R[2 * ip:2 * ip + 2, 2 * jp:2 * jp + 2]
                assert np.max(np.abs(blk - expect)) <= 1e-14
        with pytest.raises(DimensionError):
            agler.nc_rd_problem(Z, W, basis_dim=3)
