import json
import math
import tracemalloc

import numpy as np
import pytest

from picklab import ball, matcore, oracle, serialize
from picklab import quiver as qv
from picklab.errors import ArgumentError, BudgetError, DomainError, ShapeError
from picklab.quiver import Grading, QuiverPoint
from reference import kron_eval_quiver_tensor, kron_eval_tensor


def cg(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestBlaschke:
    def test_degree_zero_constant(self):
        s = oracle.blaschke_from_zeros([], 1.0)
        assert s.coefficients[0][0, 0] == pytest.approx(1.0)
        assert all(abs(s.coefficients[n][0, 0]) == 0 for n in range(1, 65))

    def test_single_factor_at_origin_is_shift(self):
        s = oracle.blaschke_from_zeros([0.0], 1.0)
        assert s.coefficients[0][0, 0] == 0
        assert s.coefficients[1][0, 0] == pytest.approx(1.0)
        assert oracle.eval_point(s, 0.5)[0, 0] == pytest.approx(0.5)

    def test_matches_product_formula(self):
        rng = np.random.default_rng(2)
        for seed in range(4):
            s = oracle.sample_blaschke(2, seed=seed)
            srng = np.random.default_rng(seed)
            radii = 0.9 * np.sqrt(srng.uniform(0, 1, 2))
            ang = srng.uniform(0, 2 * np.pi, 2)
            zeros = radii * np.exp(1j * ang)
            c = srng.uniform(0.9, 0.99) * np.exp(1j * srng.uniform(0, 2 * np.pi))
            for lam in [0.3, -0.2 + 0.4j, 0.1j]:
                direct = c * np.prod([(lam - a) / (1 - np.conj(a) * lam)
                                      for a in zeros])
                assert abs(oracle.eval_point(s, lam)[0, 0] - direct) <= 1e-12

    def test_values_inside_closed_disk(self):
        rng = np.random.default_rng(3)
        s = oracle.sample_blaschke(3, seed=9)
        for _ in range(20):
            lam = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert abs(oracle.eval_point(s, lam)[0, 0]) <= 1.0 + s.tail_bound

    def test_tail_bound_covers_dropped_coefficients(self):
        s = oracle.sample_blaschke(4, seed=31)
        full = oracle._blaschke_coefficients(
            *_blaschke_draw(31, 4), oracle._BLASCHKE_INTERNAL)
        assert np.sum(np.abs(full[65:])) <= s.tail_bound

    def test_truncated_toeplitz_contractive(self):
        s = oracle.sample_blaschke(3, seed=77)
        assert oracle.toeplitz_truncation_norm(s, 64) <= 1.0 + 1e-12

    def test_zero_radius_cap(self):
        with pytest.raises(DomainError):
            oracle.blaschke_from_zeros([0.95], 1.0)


def _blaschke_draw(seed, degree):
    srng = np.random.default_rng(seed)
    radii = 0.9 * np.sqrt(srng.uniform(0, 1, degree))
    ang = srng.uniform(0, 2 * np.pi, degree)
    zeros = radii * np.exp(1j * ang)
    c = srng.uniform(0.9, 0.99) * np.exp(1j * srng.uniform(0, 2 * np.pi))
    return zeros, c


class TestContractivePoly:
    def test_disk_constant_scaled_norm(self):
        s = oracle.sample_contractive_poly(2, 2, 0, "disk", seed=0)
        assert matcore.operator_norm(s.coefficients[0]) <= 0.95 + 1e-12
        assert s.norm_bound == pytest.approx(0.95)

    def test_disk_shift_like_normalization(self):
        # hand-built S_0 = 0, S_1 = I has multiplier norm exactly 1
        coeffs = {0: np.zeros((2, 2)), 1: np.eye(2)}
        bound = oracle.disk_sup_norm_bound(coeffs)
        assert bound == pytest.approx(1.0, abs=1e-3)

    def test_certified_bound_dominates_circle_values(self):
        s = oracle.sample_contractive_poly(2, 3, 4, "disk", seed=5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = np.exp(2j * np.pi * rng.uniform())
            val = sum(C * z**n for n, C in s.coefficients.items())
            assert matcore.operator_norm(val) <= s.norm_bound + 1e-12

    def test_ball_post_hoc_toeplitz_check(self):
        s = oracle.sample_contractive_poly(2, 2, 2, "ball", seed=7, d=2)
        # re-verify at a larger truncation than the certification degree
        assert oracle.toeplitz_truncation_norm(s, 5) <= 0.95 + 1e-10

    def test_ball_degree_cap(self):
        with pytest.raises(ArgumentError):
            oracle.sample_contractive_poly(1, 1, 9, "ball", seed=0, d=2)

    def test_quiver_shapes_follow_gradings(self):
        G, _, _ = qv.two_vertex_example()
        ind = Grading(G, {"a": 2, "b": 1})
        outd = Grading(G, {"a": 1, "b": 2})
        s = oracle.sample_contractive_poly(1, 1, 2, "quiver", seed=8,
                                           quiver=G, in_dims=ind, out_dims=outd)
        for path, C in s.coefficients.items():
            assert C.shape == (outd[path.target], ind[path.source])

    def test_quiver_toeplitz_check(self):
        G, _, _ = qv.two_vertex_example()
        ones = Grading(G, {"a": 1, "b": 1})
        s = oracle.sample_contractive_poly(1, 1, 2, "quiver", seed=9,
                                           quiver=G, in_dims=ones, out_dims=ones)
        assert oracle.toeplitz_truncation_norm(s, 5) <= 0.95 + 1e-10

    def test_quiver_two_vertex_toeplitz_agrees_with_multiplier_form(self):
        # the path-indexed truncation and the [[M_V, 0], [M_W, M_B0]]
        # realization bound the same operator
        G, _, _ = qv.two_vertex_example()
        ones = Grading(G, {"a": 1, "b": 1})
        s = oracle.sample_contractive_poly(1, 1, 3, "quiver", seed=10,
                                           quiver=G, in_dims=ones, out_dims=ones)
        v_coeffs, w_coeffs, b0 = {}, {}, np.zeros((1, 1))
        for path, C in s.coefficients.items():
            if path.source == "a" and path.target == "a":
                v_coeffs[path.length] = C
            elif path.source == "a":
                w_coeffs[path.length - 1] = C
            else:
                b0 = C
        L = 8
        V = [v_coeffs.get(n, np.zeros((1, 1))) for n in range(L + 1)]
        W = [w_coeffs.get(n, np.zeros((1, 1))) for n in range(L + 1)]
        norm_mult = qv.two_vertex_toeplitz_norm(V, W, b0, L)
        norm_path = oracle.toeplitz_truncation_norm(s, L)
        assert norm_path <= norm_mult + 1e-10
        assert norm_mult <= s.norm_bound + 1e-10


def circle_max(coefficients, points):
    """Largest singular value of S over the `points`-th roots of unity, by
    direct sums (angles reduced exactly mod 2 pi) and np.linalg.svd."""
    k = np.arange(points)
    vals = sum(np.exp(2j * np.pi * (n * k % points) / points)[:, None, None]
               * np.asarray(C, dtype=complex) for n, C in coefficients.items())
    return float(np.linalg.svd(vals, compute_uv=False)[:, 0].max())


def certificate_grid(coefficients):
    """(N, d): the documented grid, 72 * 2^ceil(log2 d) roots for degree d."""
    d = max(coefficients)
    return (72 * 2 ** math.ceil(math.log2(d)) if d else 1), d


def reference_bound(coefficients):
    """The certificate spelled out: the grid maximum over cos(pi d / N)."""
    N, d = certificate_grid(coefficients)
    return circle_max(coefficients, N) / math.cos(math.pi * d / N)


def rounding_term(coefficients, top):
    """The documented rounding term, at grid maximum `top`."""
    N, _ = certificate_grid(coefficients)
    p, q = np.shape(next(iter(coefficients.values())))
    fro = math.sqrt(sum(np.sum(np.abs(np.asarray(C)) ** 2)
                        for C in coefficients.values()))
    return (16 * math.log2(N) * math.sqrt(N) * fro
            + 4 * (p + q + 4) * min(p, q) * top) * 2.0 ** -53


class TestDiskSupNormBound:
    # Every case checks the certificate three ways: it is the documented
    # grid maximum over cos(pi d / N) up to its rounding term, it dominates
    # the maximum over 2^16 points of the circle, and it exceeds that
    # maximum by at most sec(pi / 72) - 1 < 1e-3 plus rounding.
    FINE = 2 ** 16

    def _check(self, coeffs, sup=None):
        bound = oracle.disk_sup_norm_bound(coeffs)
        ref = reference_bound(coeffs)
        e_round = rounding_term(coeffs, ref)
        assert abs(bound - ref) <= 2 * e_round + 1e-12 * ref
        fine = circle_max(coeffs, self.FINE) if sup is None else sup
        assert fine <= bound <= (1 + 1e-3) * (fine + e_round)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3),
                                       (1, 4), (4, 1)])
    def test_matches_svd_reference(self, shape):
        rng = np.random.default_rng(sum(shape) * 10 + shape[0])
        for degree in range(6):
            self._check({n: cg(rng, *shape) for n in range(degree + 1)})

    def test_sparse_keys_and_small_grid(self):
        # low degrees give the smallest grids, 72 and 144 points
        rng = np.random.default_rng(3)
        for shape in [(1, 1), (2, 2), (3, 2)]:
            for keys in [(1,), (0, 1), (0, 2), (2,), (1, 4)]:
                self._check({n: cg(rng, *shape) for n in keys})

    @pytest.mark.parametrize("keys", [
        {2: np.array([[0.6, 0.8j], [0.8, -0.6j]])},        # U z^2, U unitary
        {1: np.diag([1.0, 0.0]), 2: np.diag([0.0, 1.0])},  # diag(z, z^2)
        {0: cg(np.random.default_rng(4), 2, 2), 4000: np.eye(2)},
        dict(enumerate(cg(np.random.default_rng(5), 65, 2, 2))),
    ], ids=["unitary", "diag", "keys_0_4000", "degree_64"])
    def test_flat_sparse_and_many_keys(self, keys):
        # the first two have norm 1 on the whole circle; keys >= 4096 are
        # accepted within the work budget
        self._check(keys)

    @pytest.mark.parametrize("phase", [0.0, 0.1234, 2 * np.pi * 3.5 / 4096])
    def test_sharply_peaked(self, phase):
        # a Dirichlet-like bump of height 1 at angle `phase`, beside a
        # constant 0.5 block: the sup norm is exactly 1
        self._check({n: np.diag([np.exp(-1j * n * phase) / 12, 0.5 * (n == 0)])
                     for n in range(12)}, sup=1.0)

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 12, 64, 100, 512])
    def test_fejer_peak_between_grid_points(self, degree):
        # nonnegative weights summing to 1, peaked midway between two of
        # the certificate's own grid points: the sup norm is exactly 1 there,
        # and the grid misses it by the most
        N, _ = certificate_grid({degree: None})
        phase = 2 * np.pi * 7.5 / N
        weights = 1.0 - np.arange(degree + 1) / (degree + 1)
        weights /= weights.sum()
        self._check({n: [[w * np.exp(-1j * n * phase)]]
                     for n, w in enumerate(weights)}, sup=1.0)

    def test_constant_is_exact_up_to_rounding(self):
        C = cg(np.random.default_rng(6), 3, 2)
        norm = np.linalg.norm(C, 2)
        assert norm <= oracle.disk_sup_norm_bound({0: C}) <= norm * (1 + 1e-14)

    @pytest.mark.parametrize("key", [-1, 2.5, "1"])
    def test_non_taylor_keys_rejected(self, key):
        # a negative key is a Laurent term, outside the certificate
        with pytest.raises(ArgumentError):
            oracle.disk_sup_norm_bound({0: [[0.5]], key: [[1.0]]})

    def test_over_budget_raises_before_allocating(self, monkeypatch):
        # degree 4000 at 2 x 2 needs (4 + 4) * 294912 grid entries; the
        # table alone would take 19 MB
        monkeypatch.setenv("PICKLAB_BUDGET", "1000000")
        coeffs = {0: np.eye(2), 4000: np.eye(2)}
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                oracle.disk_sup_norm_bound(coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        monkeypatch.setenv("PICKLAB_BUDGET", str(8 * 294912))
        assert oracle.disk_sup_norm_bound(coeffs) >= 2.0

    def test_coefficients_of_different_shapes_rejected(self):
        with pytest.raises(ShapeError):
            oracle.disk_sup_norm_bound({0: np.eye(2), 1: np.ones((2, 3))})


class TestTensorEvaluationsMatchKron:
    """eval_tensor and eval_quiver_tensor form each Kronecker block as one
    broadcast product: the same bits as the np.kron accumulation."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2)])
    def test_eval_tensor(self, shape):
        rng = np.random.default_rng(sum(shape))
        s = oracle.sample_contractive_poly(*shape, 4, "disk", seed=20)
        gap = oracle.SchurSample(
            "disk", {n: C for n, C in s.coefficients.items() if n != 2},
            s.norm_bound, shape=s.shape)
        for k in (1, 3):
            Z = cg(rng, k, k)
            Z *= 0.7 / matcore.operator_norm(Z)
            for sample in (s, gap):
                assert np.array_equal(oracle.eval_tensor(sample, Z),
                                      kron_eval_tensor(sample, Z))

    def test_eval_quiver_tensor(self):
        G, _, _ = qv.two_vertex_example()
        in_dims = Grading(G, {"a": 1, "b": 2})
        out_dims = Grading(G, {"a": 2, "b": 3})
        s = oracle.sample_contractive_poly(1, 1, 3, "quiver", seed=21, quiver=G,
                                           in_dims=in_dims, out_dims=out_dims)
        dropped = next(pth for pth in s.coefficients if pth.length == 1)
        gap = oracle.SchurSample(
            "quiver", {pth: C for pth, C in s.coefficients.items() if pth != dropped},
            s.norm_bound, quiver=G, in_dims=in_dims, out_dims=out_dims)
        zd = Grading(G, {"a": 2, "b": 3})
        rng = np.random.default_rng(21)
        pt = QuiverPoint("tensor", {"alpha": cg(rng, 2, 2), "beta": cg(rng, 3, 2)})
        scale = 0.6 / qv.disk_membership(G, zd, pt).worst_row_norm
        pt = QuiverPoint("tensor", {a: M * scale for a, M in pt.blocks.items()})
        for sample in (s, gap):
            assert np.array_equal(oracle.eval_quiver_tensor(sample, pt, zd),
                                  kron_eval_quiver_tensor(sample, pt, zd))


def _round_trip_samples():
    G, _, _ = qv.two_vertex_example()
    return {
        "disk.poly": oracle.sample_contractive_poly(2, 3, 4, "disk", seed=30),
        "disk.blaschke": oracle.sample_blaschke(3, seed=31),
        "ball.poly": oracle.sample_contractive_poly(2, 2, 2, "ball", seed=32, d=2),
        "quiver.poly": oracle.sample_contractive_poly(
            1, 1, 3, "quiver", seed=33, quiver=G,
            in_dims=Grading(G, {"a": 2, "b": 1}),
            out_dims=Grading(G, {"a": 1, "b": 2})),
    }


class TestSerializeRoundTrip:
    """sample_to_json, JSON text and sample_from_json give back the sample
    bit for bit, for every sample kind the CLI emits."""

    @pytest.mark.parametrize("kind", ["disk.poly", "disk.blaschke", "ball.poly",
                                      "quiver.poly"])
    def test_round_trip_is_bitwise(self, kind):
        s = _round_trip_samples()[kind]
        back = serialize.sample_from_json(
            json.loads(json.dumps(serialize.sample_to_json(s))))
        assert back.setting == s.setting
        for field in ("norm_bound", "scale", "tail_bound"):
            assert np.float64(getattr(back, field)).tobytes() == \
                np.float64(getattr(s, field)).tobytes()
        assert back.coefficients.keys() == s.coefficients.keys()
        for key, C in s.coefficients.items():
            assert back.coefficients[key].dtype == np.complex128
            assert back.coefficients[key].tobytes() == np.asarray(C).tobytes()


class TestDeterminism:
    def test_same_seed_identical_bytes(self):
        for kind, kwargs in [("disk", {}), ("ball", {"d": 2})]:
            a = oracle.sample_contractive_poly(2, 2, 2, kind, seed=42, **kwargs)
            b = oracle.sample_contractive_poly(2, 2, 2, kind, seed=42, **kwargs)
            ja = json.dumps(serialize.sample_to_json(a), sort_keys=True)
            jb = json.dumps(serialize.sample_to_json(b), sort_keys=True)
            assert ja == jb
        a = oracle.sample_blaschke(3, seed=4)
        b = oracle.sample_blaschke(3, seed=4)
        assert json.dumps(serialize.sample_to_json(a)) == \
            json.dumps(serialize.sample_to_json(b))

    def test_different_seed_differs(self):
        a = oracle.sample_contractive_poly(1, 1, 2, "disk", seed=1)
        b = oracle.sample_contractive_poly(1, 1, 2, "disk", seed=2)
        assert json.dumps(serialize.sample_to_json(a)) != \
            json.dumps(serialize.sample_to_json(b))


class TestEvaluations:
    def test_eval_point_constant(self):
        s = oracle.sample_contractive_poly(2, 2, 0, "disk", seed=3)
        assert np.array_equal(oracle.eval_point(s, 0.7j), s.coefficients[0])

    def test_eval_point_domain(self):
        s = oracle.sample_contractive_poly(1, 1, 1, "disk", seed=3)
        with pytest.raises(DomainError):
            oracle.eval_point(s, 1.0)

    def test_eval_ltoa_constant_sample(self):
        rng = np.random.default_rng(4)
        s = oracle.sample_contractive_poly(2, 2, 0, "disk", seed=5)
        X = cg(rng, 3, 2)
        T = np.zeros((3, 3))
        assert np.allclose(oracle.eval_ltoa(s, X, T), X @ s.coefficients[0])

    def test_eval_ltoa_scalar_argument(self):
        rng = np.random.default_rng(5)
        s = oracle.sample_contractive_poly(2, 2, 3, "disk", seed=6)
        X = cg(rng, 4, 2)
        lam = 0.3 - 0.2j
        assert np.max(np.abs(oracle.eval_ltoa(s, X, lam * np.eye(4))
                             - X @ oracle.eval_point(s, lam))) <= 1e-12

    def test_eval_rtoa_sharp_duality(self):
        rng = np.random.default_rng(6)
        s = oracle.sample_contractive_poly(2, 3, 3, "disk", seed=7)
        U = cg(rng, 3, 4)
        A = cg(rng, 4, 4)
        A *= 0.5 / matcore.operator_norm(A)
        sharp = oracle.SchurSample(
            "disk", {n: C.conj().T for n, C in s.coefficients.items()},
            s.norm_bound, shape=(3, 2))
        lhs = oracle.eval_rtoa(s, U, A)
        rhs = oracle.eval_ltoa(sharp, U.conj().T, A.conj().T).conj().T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_eval_tensor_scalar_sample_is_power_sum(self):
        rng = np.random.default_rng(7)
        s = oracle.sample_contractive_poly(1, 1, 3, "disk", seed=8)
        Z = cg(rng, 2, 2)
        Z *= 0.6 / matcore.operator_norm(Z)
        direct = sum(C[0, 0] * np.linalg.matrix_power(Z, n)
                     for n, C in s.coefficients.items())
        assert np.max(np.abs(oracle.eval_tensor(s, Z) - direct)) <= 1e-13

    def test_eval_tensor_scalar_argument_is_kron(self):
        s = oracle.sample_contractive_poly(2, 3, 3, "disk", seed=9)
        lam = 0.25 + 0.3j
        lhs = oracle.eval_tensor(s, lam * np.eye(3))
        rhs = np.kron(oracle.eval_point(s, lam), np.eye(3))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_eval_tensor_shift_is_argument(self):
        s = oracle.blaschke_from_zeros([0.0], 1.0)
        rng = np.random.default_rng(8)
        Z = cg(rng, 2, 2) * 0.3
        assert np.allclose(oracle.eval_tensor(s, Z), Z)

    def test_eval_ball_d1_reduces_to_disk(self):
        rng = np.random.default_rng(9)
        s = oracle.sample_contractive_poly(2, 2, 3, "ball", seed=10, d=1)
        disk_twin = oracle.SchurSample(
            "disk", {len(w): C for w, C in s.coefficients.items()},
            s.norm_bound, shape=(2, 2))
        X = cg(rng, 3, 2)
        Z = cg(rng, 3, 3)
        Z *= 0.5 / matcore.operator_norm(Z)
        assert np.max(np.abs(oracle.eval_ball_ltoa(s, X, [Z])
                             - oracle.eval_ltoa(disk_twin, X, Z))) <= 1e-12

    def test_eval_ball_single_letter(self):
        coeffs = {(2,): np.array([[0.5]])}
        s = oracle.SchurSample("ball", coeffs, 0.5, d=2, shape=(1, 1))
        rng = np.random.default_rng(10)
        Z = [cg(rng, 2, 2) * 0.3 for _ in range(2)]
        X = cg(rng, 2, 1)
        assert np.allclose(oracle.eval_ball_ltoa(s, X, Z), Z[1] @ X * 0.5)

    def test_eval_quiver_zero_point_block_diagonal(self):
        G, _, _ = qv.two_vertex_example()
        ones = Grading(G, {"a": 1, "b": 1})
        s = oracle.sample_contractive_poly(1, 1, 2, "quiver", seed=11,
                                           quiver=G, in_dims=ones, out_dims=ones)
        zd = Grading(G, {"a": 2, "b": 2})
        pt = QuiverPoint("tensor", {"alpha": np.zeros((2, 2)),
                                    "beta": np.zeros((2, 2))})
        val = oracle.eval_quiver_tensor(s, pt, zd)
        v0 = s.coefficients[G.vertex_path("a")][0, 0]
        b0 = s.coefficients[G.vertex_path("b")][0, 0]
        expect = np.zeros((4, 4), dtype=complex)
        expect[:2, :2] = v0 * np.eye(2)
        expect[2:, 2:] = b0 * np.eye(2)
        assert np.allclose(val, expect)

    def test_eval_quiver_two_vertex_block_formula(self):
        G, _, _ = qv.two_vertex_example()
        ones = Grading(G, {"a": 1, "b": 1})
        s = oracle.sample_contractive_poly(1, 1, 3, "quiver", seed=12,
                                           quiver=G, in_dims=ones, out_dims=ones)
        zd = Grading(G, {"a": 2, "b": 2})
        rng = np.random.default_rng(12)
        Za = cg(rng, 2, 2)
        Za *= 0.5 / matcore.operator_norm(Za)
        Zb = cg(rng, 2, 2)
        Zb *= 0.5 / matcore.operator_norm(Zb)
        pt = QuiverPoint("tensor", {"alpha": Za, "beta": Zb})
        val = oracle.eval_quiver_tensor(s, pt, zd)
        v_n, w_n, b0 = {}, {}, 0.0
        for path, C in s.coefficients.items():
            if path.source == "a" and path.target == "a":
                v_n[path.length] = C[0, 0]
            elif path.source == "a":
                w_n[path.length - 1] = C[0, 0]
            else:
                b0 = C[0, 0]
        topleft = sum(v * np.linalg.matrix_power(Za, n) for n, v in v_n.items())
        botleft = Zb @ sum(w * np.linalg.matrix_power(Za, n)
                           for n, w in w_n.items())
        expect = np.block([[topleft, np.zeros((2, 2))],
                           [botleft, b0 * np.eye(2)]])
        assert np.max(np.abs(val - expect)) <= 1e-12

    def test_eval_quiver_single_vertex_reduces_to_ball(self):
        G = qv.Quiver(("v",), ("l0", "l1"), {"l0": "v", "l1": "v"},
                      {"l0": "v", "l1": "v"})
        ones = Grading(G, {"v": 1})
        s = oracle.sample_contractive_poly(1, 1, 2, "quiver", seed=13,
                                           quiver=G, in_dims=ones, out_dims=ones)
        rng = np.random.default_rng(13)
        mats = [cg(rng, 2, 2) for _ in range(2)]
        scale = 0.5 / matcore.operator_norm(np.hstack(mats))
        mats = [M * scale for M in mats]
        zd = Grading(G, {"v": 2})
        pt = QuiverPoint("tensor", {"l0": mats[0], "l1": mats[1]})
        val = oracle.eval_quiver_tensor(s, pt, zd)
        # ball twin: word letters chronological-reversed arrow names
        ball_coeffs = {}
        for path, C in s.coefficients.items():
            word = tuple(2 if a == "l1" else 1 for a in reversed(path.arrows))
            ball_coeffs[word] = C
        sb = oracle.SchurSample("ball", ball_coeffs, s.norm_bound, d=2,
                                shape=(1, 1))
        direct = np.zeros((2, 2), dtype=complex)
        for w, C in sb.coefficients.items():
            direct += C[0, 0] * ball.word_power(mats, w)
        assert np.max(np.abs(val - direct)) <= 1e-13
