import numpy as np
import pytest

from specquad.geometry import (
    B_INTERTWINER,
    ETA,
    GAMMA0,
    GAMMA1,
    GAMMA2,
    KILLING_L01,
    KILLING_L02,
    KILLING_L21,
    WAVE_OPERATOR,
    ChartPoint,
    HypFn,
    bracket,
    derivative,
    embedding_extrinsic_trace,
    frame_intertwiner_inverse,
    frame_vectors,
    geometry_at,
    slash,
    square,
    symmetry_checks,
    x_embedding,
)

from oracle_reference import (
    apply_second_order,
    casimir,
    chart_metric,
    default_test_functions,
    frame_intertwiner,
    killing_l01,
    killing_l02,
    killing_l21,
    laplace_beltrami,
)

GAMMAS = (GAMMA0, GAMMA1, GAMMA2)


def minkowski_sq(v):
    return -v[0] ** 2 + v[1] ** 2 + v[2] ** 2


class TestHypFn:
    def test_derivatives_match_finite_differences(self, rng):
        f = HypFn({(2, -1, 3): 1.0 + 0.5j, (0, 2, -1): -0.7, (1, 0, 0): 2.0})
        h = 1e-6
        for _ in range(5):
            th, ph = rng.uniform(-1, 1), rng.uniform(0, 6)
            fd_th = (f(th + h, ph) - f(th - h, ph)) / (2 * h)
            fd_ph = (f(th, ph + h) - f(th, ph - h)) / (2 * h)
            assert abs(f.d_theta()(th, ph) - fd_th) < 1e-7
            assert abs(f.d_phi()(th, ph) - fd_ph) < 1e-7

    def test_product_rule(self, rng):
        f = HypFn({(1, 0, 1): 1.0})
        g = HypFn({(0, 1, -2): 2.0, (1, -1, 0): 1j})
        lhs = (f * g).d_theta()
        rhs = f.d_theta() * g + f * g.d_theta()
        th, ph = 0.3, 1.1
        assert abs(lhs(th, ph) - rhs(th, ph)) < 1e-14

    def test_negative_sinh_power_rejected(self):
        with pytest.raises(ValueError):
            HypFn.monomial(-1, 0, 0)

    def test_constructor_accumulates_pairs_and_drops_zeros(self):
        f = HypFn([((1, 0, 2), 1.5), ((0, 1, 0), 2.0), ((1, 0, 2), -1.5),
                   ((0, 1, 0), 1j), ((2, 0, 0), 0.0)])
        assert f.terms == {(0, 1, 0): 2.0 + 1j}
        assert not (f - f).terms
        assert (f + f).terms == (2 * f).terms == {(0, 1, 0): 4.0 + 2j}

    @pytest.mark.parametrize("theta", [-1.1, 0.4, 1.3])
    def test_phi_modes_match_fft(self, rng, theta):
        # the exact modes against the FFT of the component on a uniform grid,
        # where the trapezoid rule is exact for these trigonometric degrees
        npts = 1024
        phi = np.arange(npts) * 2.0 * np.pi / npts
        for _ in range(10):
            f = HypFn({(int(rng.integers(0, 3)), int(rng.integers(-2, 3)),
                        int(rng.integers(-4, 5))): complex(rng.normal(), rng.normal())
                       for _ in range(6)})
            exact = np.zeros(npts, dtype=complex)
            for k, c in f.phi_modes(theta).items():
                exact[k % npts] += c
            fft = np.fft.fft(f(theta, phi)) / npts
            np.testing.assert_allclose(exact, fft, rtol=0, atol=1e-13)


class TestGeometryData:
    def test_origin(self):
        p = ChartPoint(0.0, 0.0)
        np.testing.assert_allclose(geometry_at(p).embedding, [0.0, 1.0, 0.0], atol=1e-15)
        g = chart_metric(p)
        np.testing.assert_allclose(g.metric, np.diag([-1.0, 1.0]), atol=1e-15)
        assert g.christoffel_theta_phiphi == 0.0
        assert g.christoffel_phi_thetaphi == 0.0

    def test_christoffel_value(self):
        g = chart_metric(ChartPoint(1.0, 0.0))
        assert g.christoffel_theta_phiphi == pytest.approx(
            np.cosh(1.0) * np.sinh(1.0))
        assert g.christoffel_phi_thetaphi == pytest.approx(np.tanh(1.0))

    def test_embedding_constraint(self, rng):
        for _ in range(50):
            p = ChartPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0, 2 * np.pi)),
                           radius=float(rng.uniform(0.5, 3.0)))
            g = geometry_at(p)
            assert abs(minkowski_sq(g.embedding) - p.radius ** 2) <= 1e-12 * p.radius ** 2

    def test_extrinsic_curvature(self, rng):
        # K = (1/R) identity; trace (n-1)/R with n = 3 the embedding dim.
        for _ in range(10):
            p = ChartPoint(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0, 6)),
                           radius=float(rng.uniform(0.5, 2.0)))
            assert embedding_extrinsic_trace(p) == pytest.approx(2.0 / p.radius)

    def test_extrinsic_trace_from_embedding(self, rng):
        # K_A^A from exact second derivatives of the embedding
        for _ in range(50):
            p = ChartPoint(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0, 6)),
                           radius=float(rng.uniform(0.5, 2.0)))
            assert abs(embedding_extrinsic_trace(p) - 2.0 / p.radius) <= 1e-13

    def test_extrinsic_trace_from_normal_derivatives(self, rng):
        # independent check: K_A^B = e_A(n)^B via finite differences of the
        # unit normal field, projected on the tangent frame
        h = 1e-6
        for _ in range(5):
            th, ph = float(rng.uniform(-1, 1)), float(rng.uniform(0, 6))
            r = 1.7

            def normal(t, p):
                return np.array([np.sinh(t), np.cosh(t) * np.cos(p),
                                 np.cosh(t) * np.sin(p)])

            dn_dth = (normal(th + h, ph) - normal(th - h, ph)) / (2 * h) / r
            dn_dph = (normal(th, ph + h) - normal(th, ph - h)) / (2 * h) / (
                r * np.cosh(th))
            e0, _, e2 = frame_vectors(ChartPoint(th, ph, r))
            # minkowski projections onto the orthonormal tangent directions
            k00 = -np.dot(dn_dth * np.array([-1, 1, 1]), e0)
            k22 = np.dot(dn_dph * np.array([-1, 1, 1]), e2)
            assert k00 + k22 == pytest.approx(2.0 / r, abs=1e-6)


class TestFrames:
    def test_frames_orthonormal(self, rng):
        for _ in range(20):
            p = ChartPoint(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0, 6)))
            e = frame_vectors(p)
            gram = np.array([[-e[i][0] * e[j][0] + e[i][1] * e[j][1]
                              + e[i][2] * e[j][2]
                              for j in range(3)] for i in range(3)])
            np.testing.assert_allclose(gram, ETA, atol=1e-13)

    def test_clifford_relations(self, rng):
        for _ in range(20):
            p = ChartPoint(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0, 6)))
            e = frame_vectors(p)
            for i in range(3):
                for j in range(3):
                    anti = slash(e[i]) @ slash(e[j]) + slash(e[j]) @ slash(e[i])
                    np.testing.assert_allclose(anti, 2 * ETA[i, j] * np.eye(2),
                                               atol=1e-12)

    def test_flat_clifford_relations(self):
        for i in range(3):
            for j in range(3):
                anti = GAMMAS[i] @ GAMMAS[j] + GAMMAS[j] @ GAMMAS[i]
                np.testing.assert_allclose(anti, 2 * ETA[i, j] * np.eye(2), atol=0)

    def test_b_intertwining(self):
        for g in GAMMAS:
            np.testing.assert_allclose(g.conj().T @ B_INTERTWINER,
                                       -B_INTERTWINER @ g, atol=0)

    def test_intertwiner_frame_covariance(self, rng):
        for _ in range(20):
            th, ph = float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0, 2 * np.pi))
            s = frame_intertwiner(th, ph)
            si = frame_intertwiner_inverse(th, ph)
            np.testing.assert_allclose(s @ si, np.eye(2), atol=1e-13)
            for vec, gam in zip(frame_vectors(ChartPoint(th, ph)), GAMMAS):
                np.testing.assert_allclose(slash(vec), s @ gam @ si, atol=1e-12)

    def test_stacked_intertwiner_inverse(self, rng):
        # arrays of theta and phi broadcast to the fiber-major stack of the
        # inverses of the reference transport S
        th = rng.uniform(-1.5, 1.5, 7)[:, None]
        ph = rng.uniform(0, 2 * np.pi, 3)
        stack = frame_intertwiner_inverse(th, ph)
        assert stack.shape == (2, 2, 7, 3)
        for i in range(7):
            for j in range(3):
                s = frame_intertwiner(float(th[i, 0]), float(ph[j]))
                np.testing.assert_allclose(s @ stack[..., i, j], np.eye(2), rtol=0, atol=1e-14)


# the Killing fields as vector fields and the maps of functions they replace
KILLING = [(KILLING_L01, killing_l01), (KILLING_L02, killing_l02), (KILLING_L21, killing_l21)]


def casimir_coefficients():
    """Coefficients of L01^2 + L02^2 - L21^2."""
    return [a + b - c for a, b, c in zip(*map(square, (KILLING_L01, KILLING_L02, KILLING_L21)))]


def assert_same_function(f, g, atol=1e-12):
    """f and g agree at 50 points: HypFn monomials are not independent, so
    two expressions of one function can differ in their terms."""
    rng = np.random.default_rng(7)
    th, ph = rng.uniform(-1.5, 1.5, 50), rng.uniform(0, 2 * np.pi, 50)
    scale = max(1.0, float(np.abs(g(th, ph)).max()))
    np.testing.assert_allclose(f(th, ph), g(th, ph), rtol=0, atol=atol * scale)


class TestKillingFields:
    def test_bracket_and_casimir_residuals(self):
        for p in (ChartPoint(0.5, 1.0), ChartPoint(-0.7, 3.3), ChartPoint(0.0, 0.0),
                  ChartPoint(np.linspace(-1.5, 1.5, 9), np.linspace(0, 6, 9))):
            out = symmetry_checks(p)
            assert sorted(out) == ["bracket_l01_l02", "bracket_l01_l21",
                                   "bracket_l02_l21", "casimir"]
            assert all(v <= 1e-14 for v in out.values()), out

    def test_bracket_on_embedding_restriction(self):
        # ( [L01, L21] - L02 ) x2 = 0 exactly, through the bracket of the
        # coefficients and through the composed maps alike
        _, _, x2 = x_embedding()
        diff = derivative(bracket(KILLING_L01, KILLING_L21), x2) - derivative(KILLING_L02, x2)
        assert not diff.terms
        composed = (killing_l01(killing_l21(x2)) - killing_l21(killing_l01(x2))
                    - killing_l02(x2))
        assert abs(composed(0.5, 1.0)) <= 1e-12

    def test_constant_annihilated(self):
        one = HypFn.constant(1.0)
        for field, _ in KILLING:
            assert not derivative(field, one).terms
        assert not apply_second_order(WAVE_OPERATOR, one).terms

    def test_casimir_on_x0(self):
        x0, _, _ = x_embedding()
        lhs = apply_second_order(casimir_coefficients(), x0)
        rhs = (-1.0) * laplace_beltrami(x0)
        assert abs(lhs(0.8, 2.0) - rhs(0.8, 2.0)) <= 1e-9
        assert_same_function(apply_second_order(WAVE_OPERATOR, x0), rhs)

    def test_custom_test_functions(self):
        # on the test functions the old check looped over, the coefficients
        # reproduce the maps: each Killing field, each square, the Casimir and
        # -R^2 times the Laplacian
        radius = 2.0
        for f in default_test_functions(radius):
            for field, action in KILLING:
                assert (derivative(field, f) - action(f)).terms == {}
                assert_same_function(apply_second_order(square(field), f), action(action(f)))
            assert_same_function(apply_second_order(casimir_coefficients(), f), casimir(f))
            assert_same_function(apply_second_order(WAVE_OPERATOR, f),
                                 -radius ** 2 * laplace_beltrami(f, radius))

    def test_wave_operator_read_from_the_metric(self):
        # h^AB = -R^2 g^AB is the second-order part; the first-order part of
        # the divergence form is tanh d_theta
        rng = np.random.default_rng(3)
        th, ph, r = rng.uniform(-1.5, 1.5, 20), rng.uniform(0, 6, 20), 1.7
        g_inv = chart_metric(ChartPoint(th, ph, r)).metric_inv
        dtt, dtp, dpp, dt, dp = (c(th, ph) for c in WAVE_OPERATOR)
        np.testing.assert_allclose(dtt, -r ** 2 * g_inv[0, 0], rtol=1e-15)
        np.testing.assert_allclose(dpp, -r ** 2 * g_inv[1, 1], rtol=1e-15)
        assert not dtp.any() and not dp.any()
        np.testing.assert_allclose(dt, np.tanh(th), rtol=1e-15)


class TestArrayPoints:
    """A ChartPoint of arrays gives the per-point scalar values stacked on
    the trailing axis.  Where both paths do the same float operations the
    values agree to 0 ulp; the one exception is HypFn's integer powers,
    where numpy computes a float64 scalar's power with C pow and an array's
    with its own loops (x*x for a square), which differ in the last bit."""

    @pytest.fixture(params=[1.0, 1.7], ids=["unit-radius", "radius-1.7"])
    def points(self, request):
        rng = np.random.default_rng(20201121)
        theta = rng.uniform(-1.5, 1.5, 50)
        phi = rng.uniform(0, 2 * np.pi, 50)
        theta[0] = phi[1] = 0.0
        batch = ChartPoint(theta, phi, request.param)
        singles = [ChartPoint(float(th), float(ph), request.param)
                   for th, ph in zip(theta, phi)]
        return batch, singles

    @staticmethod
    def stacked(values):
        return np.stack(values, axis=-1)

    def test_hypfn_linear_powers_exact(self, points):
        batch, singles = points
        x0 = x_embedding(batch.radius)[0]
        fns = [f for x in x_embedding(batch.radius) for f in (x, x.d_theta(), x.d_phi())]
        assert not x0.d_phi().terms
        for f in fns:
            arr = f(batch.theta, batch.phi)
            assert arr.shape == (50,) and arr.dtype == complex
            np.testing.assert_array_equal(arr, [f(p.theta, p.phi) for p in singles])

    def test_hypfn_higher_powers_within_an_ulp(self, points):
        batch, singles = points
        f = HypFn({(2, -1, 3): 1.0 + 0.5j, (0, 2, -1): -0.7, (3, -2, 0): 2.0j})
        arr = f(batch.theta, batch.phi)
        np.testing.assert_allclose(arr, [f(p.theta, p.phi) for p in singles],
                                   rtol=4e-16, atol=0)

    def test_empty_hypfn_gives_zeros_of_the_point_shape(self):
        empty = HypFn()
        assert empty(0.3, 1.0) == 0
        out = empty(np.zeros((2, 3)), np.zeros(3))
        assert out.shape == (2, 3) and out.dtype == complex and not out.any()

    def test_geometry_at(self, points):
        batch, singles = points
        np.testing.assert_array_equal(
            geometry_at(batch).embedding, self.stacked([geometry_at(p).embedding for p in singles]))
        arr = chart_metric(batch)
        for name in ("metric", "metric_inv",
                     "christoffel_theta_phiphi", "christoffel_phi_thetaphi"):
            np.testing.assert_array_equal(
                getattr(arr, name), self.stacked([getattr(chart_metric(p), name) for p in singles]))

    def test_frame_vectors_and_slash(self, points):
        batch, singles = points
        arr = frame_vectors(batch)
        for k in range(3):
            np.testing.assert_array_equal(arr[k], self.stacked([frame_vectors(p)[k] for p in singles]))
            assert slash(arr[k]).shape == (2, 2, 50)
            np.testing.assert_array_equal(
                slash(arr[k]), self.stacked([slash(frame_vectors(p)[k]) for p in singles]))

    def test_extrinsic_trace(self, points):
        batch, singles = points
        np.testing.assert_array_equal(embedding_extrinsic_trace(batch),
                                      [embedding_extrinsic_trace(p) for p in singles])

    def test_scalar_calls_stay_scalar(self):
        p = ChartPoint(0.3, 1.1, 1.7)
        assert np.shape(x_embedding()[1](0.3, 1.1)) == ()
        assert geometry_at(p).embedding.shape == (3,) and chart_metric(p).metric.shape == (2, 2)
        assert [e.shape for e in frame_vectors(p)] == [(3,)] * 3
        assert slash(frame_vectors(p)[0]).shape == (2, 2)
        assert isinstance(embedding_extrinsic_trace(p), float)

    def test_theta_and_phi_broadcast(self):
        theta, phi = np.linspace(-1, 1, 4)[:, None], np.linspace(0, 6, 3)
        e0, e1, e2 = frame_vectors(ChartPoint(theta, phi))
        assert e0.shape == e1.shape == e2.shape == (3, 4, 3)
        np.testing.assert_array_equal(
            e1[:, 2, 1], frame_vectors(ChartPoint(float(theta[2, 0]), float(phi[1])))[1])
        assert geometry_at(ChartPoint(theta, phi)).embedding.shape == (3, 4, 3)
        assert chart_metric(ChartPoint(theta, phi)).metric.shape == (2, 2, 4, 3)
