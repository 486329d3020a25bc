import cmath
import math

import numpy as np
import pytest

from hypersint import geometry as geo
from hypersint.errors import (
    NonFiniteValueError,
    OutOfDomainError,
    SingularConfigurationError,
)

SH_PARAMS = (0.0, 1.0, 0.0)


def random_chart_point(chart, rng):
    if chart == "equidistant":
        return geo.ChartPoint(chart, rng.uniform(-3, 3), rng.uniform(-3, 3))
    if chart == "horicyclic":
        return geo.ChartPoint(chart, rng.uniform(-3, 3), rng.uniform(0.05, 5))
    if chart == "elliptic-parabolic":
        return geo.ChartPoint(chart, rng.uniform(0.01, 3), rng.uniform(-1.5, 1.5))
    if chart == "hyperbolic-parabolic":
        return geo.ChartPoint(chart, rng.uniform(0.01, 3), rng.uniform(0.05, 1.5))
    return geo.ChartPoint(chart, rng.uniform(0.05, 4), -rng.uniform(0.05, 4),
                          SH_PARAMS)


def test_all_charts_land_on_upper_sheet():
    rng = np.random.default_rng(0)
    for chart in geo.CHARTS:
        for _ in range(1000):
            q = geo.chart_to_ambient(random_chart_point(chart, rng))
            assert geo.hyperboloid_residual(q) <= 1e-10
            assert q.w0 >= 1.0 - 1e-12


def test_chart_map_examples():
    q = geo.chart_to_ambient(geo.ChartPoint("equidistant", 0.0, 0.0))
    assert (q.w0, q.w1, q.w2) == (1.0, 0.0, 0.0)
    q = geo.chart_to_ambient(geo.ChartPoint("horicyclic", 0.0, 1.0))
    assert (q.w0, q.w1, q.w2) == (1.0, 0.0, 0.0)
    a = math.acosh(2.0)
    q = geo.chart_to_ambient(geo.ChartPoint("elliptic-parabolic", a, 0.0))
    assert abs(q.w0 - 1.25) < 1e-14 and abs(q.w1 - 0.75) < 1e-14 and q.w2 == 0.0
    assert geo.hyperboloid_residual(q) < 1e-14


def test_hyperboloid_residual_values():
    assert geo.hyperboloid_residual(geo.AmbientPoint(1.0, 0.0, 0.0)) == 0.0
    q = geo.AmbientPoint(math.cosh(1.0), math.sinh(1.0), 0.0)
    assert geo.hyperboloid_residual(q) < 1e-15
    # (2,1,1) violates the constraint by exactly 1 and is rejected as a point
    with pytest.raises(OutOfDomainError):
        geo.AmbientPoint(2.0, 1.0, 1.0)
    assert abs(2.0**2 - 1.0 - 1.0 - 1.0) == 1.0


def test_chart_domains_validated():
    with pytest.raises(OutOfDomainError):
        geo.ChartPoint("horicyclic", 0.0, -1.0)
    with pytest.raises(OutOfDomainError):
        geo.ChartPoint("elliptic-parabolic", -0.5, 0.2)
    with pytest.raises(OutOfDomainError):
        geo.ChartPoint("hyperbolic-parabolic", 0.5, -0.2)
    with pytest.raises(OutOfDomainError):
        geo.ChartPoint("semi-hyperbolic", 1.0, -1.0)  # params required
    with pytest.raises(OutOfDomainError):
        geo.ChartPoint("semi-hyperbolic", -1.0, 1.0, SH_PARAMS)  # nu < e3 < mu
    with pytest.raises(OutOfDomainError):
        geo.ChartPoint("unknown-chart", 0.0, 0.0)


def test_inversions_roundtrip():
    rng = np.random.default_rng(1)
    for chart in ("equidistant", "horicyclic", "elliptic-parabolic",
                  "hyperbolic-parabolic"):
        for _ in range(200):
            p = random_chart_point(chart, rng)
            if chart in ("equidistant", "horicyclic"):
                p = geo.ChartPoint(chart, max(min(p.u1, 2), -2),
                                   p.u2 if chart == "equidistant"
                                   else max(p.u2, 0.1))
            q = geo.chart_to_ambient(p)
            p2 = geo.ambient_to_chart(q, chart)
            assert abs(p2.u1 - p.u1) < 5e-9 and abs(p2.u2 - p.u2) < 5e-9


def test_horicyclic_bridge():
    # x = e^b tanh a, y = e^b / cosh a
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        q = geo.chart_to_ambient(geo.ChartPoint("equidistant", a, b))
        hc = geo.ambient_to_chart(q, "horicyclic")
        assert abs(hc.u1 - math.exp(b) * math.tanh(a)) <= 1e-12 * max(1, abs(hc.u1))
        assert abs(hc.u2 - math.exp(b) / math.cosh(a)) <= 1e-12 * max(1, abs(hc.u2))


def _scalar_chart_map(chart, u1, u2, cp=None, w2_sign=1):
    """The chart maps in math/cmath scalar arithmetic."""
    if chart == "equidistant":
        return (math.cosh(u1) * math.cosh(u2), math.cosh(u1) * math.sinh(u2),
                math.sinh(u1))
    if chart == "horicyclic":
        return ((u1 * u1 + u2 * u2 + 1.0) / (2.0 * u2),
                (u1 * u1 + u2 * u2 - 1.0) / (2.0 * u2), u1 / u2)
    if chart == "elliptic-parabolic":
        cc = 2.0 * math.cosh(u1) * math.cos(u2)
        return ((math.cosh(u1) ** 2 + math.cos(u2) ** 2) / cc,
                (math.sinh(u1) ** 2 - math.sin(u2) ** 2) / cc,
                math.tanh(u1) * math.tan(u2))
    if chart == "hyperbolic-parabolic":
        ss = 2.0 * math.sinh(u1) * math.sin(u2)
        return ((math.cosh(u1) ** 2 + math.cos(u2) ** 2) / ss,
                (math.sinh(u1) ** 2 - math.sin(u2) ** 2) / ss,
                1.0 / (math.tanh(u1) * math.tan(u2)))
    a_c, b_c, e3 = cp
    e1 = complex(a_c, b_c)
    s1 = cmath.sqrt((u1 - e1) * (u2 - e1) / ((e1 - e1.conjugate()) * (e1 - e3)))
    return (math.sqrt(2.0) * s1.real, math.sqrt(2.0) * s1.imag,
            w2_sign * math.sqrt((u1 - e3) * (e3 - u2) / ((e3 - a_c) ** 2 + b_c ** 2)))


@pytest.mark.parametrize("chart", geo.CHARTS)
def test_chart_points_match_scalar_formulas(chart):
    rng = np.random.default_rng(3)
    pts = [random_chart_point(chart, rng) for _ in range(300)]
    u1, u2 = (np.array([getattr(p, k) for p in pts]) for k in ("u1", "u2"))
    cp = pts[0].chart_params
    for sign in (1, -1):
        q = geo.chart_points(chart, u1, u2, cp, w2_sign=sign)
        assert len(q) == len(pts)
        for i, p in enumerate(pts):
            ref = _scalar_chart_map(chart, p.u1, p.u2, cp, sign)
            got = (q.w0[i], q.w1[i], q.w2[i])
            # w0 is the largest coordinate: w0^2 = 1 + w1^2 + w2^2
            tol = 1e-15 * max(1.0, abs(ref[0]))
            assert max(abs(g - r) for g, r in zip(got, ref)) <= tol, (p, got, ref)
        # the scalar map is the batch map on one point
        one = geo.chart_to_ambient(pts[7], w2_sign=sign)
        assert (one.w0, one.w1, one.w2) == (q.w0[7], q.w1[7], q.w2[7])
        res = geo.hyperboloid_residual(q)
        assert res.shape == (len(pts),)
        assert res[7] == geo.hyperboloid_residual(one)


def test_chart_points_validate_the_sheet():
    with pytest.raises(OutOfDomainError, match="point 1"):
        geo.chart_points("horicyclic", [0.0, 1.0], [1.0, -1.0])
    with pytest.raises(OutOfDomainError):
        geo.chart_points("semi-hyperbolic", [1.0], [0.5], SH_PARAMS)  # nu > e3
    with pytest.raises(OutOfDomainError):
        geo.chart_points("unknown-chart", [0.0], [0.0])


@pytest.mark.parametrize("chart", ["elliptic-parabolic", "hyperbolic-parabolic"])
def test_parabolic_inversion_recovers_coordinates(chart):
    # correctly rounded ambient points give back their chart coordinates to
    # a few ulps: each root of the inversion's quadratic is taken from its
    # cancellation-free side (the textbook roots lost up to 8e-9)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(5)
    u1 = rng.uniform(0.01, 3.0, 400)
    u2 = rng.uniform(-1.5 if chart == "elliptic-parabolic" else 0.05, 1.5, 400)
    ws = []
    for a, t in zip(u1.tolist(), u2.tolist()):
        a, t = mp.mpf(a), mp.mpf(t)
        den = 2 * (mp.cosh(a) * mp.cos(t) if chart == "elliptic-parabolic"
                   else mp.sinh(a) * mp.sin(t))
        w2 = (mp.tanh(a) * mp.tan(t) if chart == "elliptic-parabolic"
              else 1 / (mp.tanh(a) * mp.tan(t)))
        ws.append([float((mp.cosh(a) ** 2 + mp.cos(t) ** 2) / den),
                   float((mp.sinh(a) ** 2 - mp.sin(t) ** 2) / den), float(w2)])
    a, t = geo.chart_coordinates(geo.AmbientPoints(*np.array(ws).T), chart)
    assert np.max(np.abs(a - u1) / u1) <= 4e-15
    assert np.max(np.abs(t - u2) / np.abs(u2)) <= 4e-15


def test_semi_hyperbolic_w2_sign_flag():
    p = geo.ChartPoint("semi-hyperbolic", 1.3, -0.7, SH_PARAMS)
    qp = geo.chart_to_ambient(p, w2_sign=+1)
    qm = geo.chart_to_ambient(p, w2_sign=-1)
    assert qp.w2 > 0 > qm.w2
    assert qp.w0 == qm.w0 and qp.w1 == qm.w1


# ---------------------------------------------------------------------------
# Flows and derivatives
# ---------------------------------------------------------------------------

def test_flow_examples():
    q = geo.generator_flow("K3", 0.8, geo.AmbientPoint(1.0, 0.0, 0.0))
    assert abs(q.w0 - math.cosh(0.8)) < 1e-15
    assert abs(q.w1 - math.sinh(0.8)) < 1e-15
    q0 = geo.chart_to_ambient(geo.ChartPoint("equidistant", 0.3, 0.4))
    q = geo.generator_flow("M1", math.pi / 2, q0)
    assert abs(q.w1 + q0.w2) < 1e-15 and abs(q.w2 - q0.w1) < 1e-15


def test_flow_group_inverse_and_surface_preservation():
    rng = np.random.default_rng(3)
    for g in geo.GENERATORS:
        for _ in range(50):
            q0 = geo.chart_to_ambient(geo.ChartPoint(
                "equidistant", rng.uniform(-2, 2), rng.uniform(-2, 2)))
            t = rng.uniform(-1.5, 1.5)
            qt = geo.generator_flow(g, t, q0)
            assert geo.hyperboloid_residual(qt) <= 1e-13 * max(1, qt.w0**2)
            back = geo.generator_flow(g, -t, qt)
            err = max(abs(back.w0 - q0.w0), abs(back.w1 - q0.w1),
                      abs(back.w2 - q0.w2))
            assert err <= 1e-14 * max(1.0, q0.w0)


def test_apply_generator_examples():
    q = geo.AmbientPoint(1.0, 0.0, 0.0)
    # K3 w1 = w0
    assert abs(geo.apply_generator("K3", lambda p: p.w1, q) - 1.0) < 1e-12
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = geo.chart_to_ambient(geo.ChartPoint(
            "equidistant", rng.uniform(-1, 1), rng.uniform(-1, 1)))
        # M1 w2 = w1
        got = geo.apply_generator("M1", lambda p: p.w2, q)
        assert abs(got - q.w1) < 1e-10


def test_apply_generator_convergence_order():
    q = geo.chart_to_ambient(geo.ChartPoint("equidistant", 0.37, -0.61))
    f = lambda p: p.w0**2
    exact = 2.0 * q.w0 * geo.apply_generator("K3", lambda p: p.w0, q, h=1e-5)
    errs = []
    for h in (0.08, 0.04, 0.02, 0.01):
        got = geo.apply_generator("K3", f, q, h=h, richardson=False)
        errs.append(abs(got - exact))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0)
              for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9


def test_commutators_numerically():
    rng = np.random.default_rng(5)
    f = lambda p: p.w0**2 * np.exp(-p.w0) + p.w1 * p.w2

    def comm(g1, g2, q):
        a = lambda p: geo.apply_generator(g2, f, p)
        b = lambda p: geo.apply_generator(g1, f, p)
        return geo.apply_generator(g1, a, q) - geo.apply_generator(g2, b, q)

    for _ in range(5):
        q = geo.chart_to_ambient(geo.ChartPoint(
            "equidistant", rng.uniform(-1, 1), rng.uniform(-1, 1)))
        scale = max(abs(f(q)), 1.0)
        assert abs(comm("K3", "K2", q) - geo.apply_generator("M1", f, q)) \
            <= 1e-6 * scale
        assert abs(comm("K2", "M1", q) + geo.apply_generator("K3", f, q)) \
            <= 1e-6 * scale
        assert abs(comm("K3", "M1", q) - geo.apply_generator("K2", f, q)) \
            <= 1e-6 * scale


def test_apply_operator_laplace_beltrami():
    lb = geo.laplace_beltrami()
    q = geo.chart_to_ambient(geo.ChartPoint("equidistant", 0.5, -0.3))
    assert abs(geo.apply_operator(lb, lambda p: 1.0, q)) < 1e-12
    # w0 is a Casimir eigenfunction: LB w0 = 2 w0
    got = geo.apply_operator(lb, lambda p: p.w0, q)
    assert abs(got - 2.0 * q.w0) <= 1e-8 * q.w0
    # brute-force cross-check by naive second differences along each flow
    h = 1e-4
    brute = 0.0
    for g, sgn in (("K3", 1.0), ("K2", 1.0), ("M1", -1.0)):
        f0 = q.w0
        fp = geo.generator_flow(g, h, q).w0
        fm = geo.generator_flow(g, -h, q).w0
        brute += sgn * (fp - 2 * f0 + fm) / h**2
    assert abs(got - brute) <= 1e-6 * max(1.0, abs(got))


def test_single_word_reduces_to_apply_generator():
    expr = geo.OperatorExpr(terms=((1.0, ("K3",)),))
    q = geo.chart_to_ambient(geo.ChartPoint("equidistant", 0.4, 0.9))
    f = lambda p: p.w1 * p.w2
    assert geo.apply_operator(expr, f, q) == geo.apply_generator("K3", f, q)


def test_operator_guard_rejects_singular_points():
    expr = geo.OperatorExpr(terms=((lambda p: 1.0 / p.w2, ("K3",)),),
                            guards=(lambda p: p.w2,), name="test")
    q = geo.AmbientPoint(1.0, 0.0, 0.0)
    with pytest.raises(SingularConfigurationError):
        geo.apply_operator(expr, lambda p: p.w0, q)


def test_operator_word_length_capped():
    with pytest.raises(OutOfDomainError):
        geo.OperatorExpr(terms=((1.0, ("K3", "K3", "K2", "M1")),))


# ---------------------------------------------------------------------------
# Batched stencils
# ---------------------------------------------------------------------------

def _reference_word(word, f, q, h, richardson=True):
    """Nested central differences along exact flows, one point at a time:
    the definition the batched stencils must reproduce bit for bit."""
    if not word:
        return f(q)

    def central(s):
        vp = _reference_word(word[1:], f, geo.generator_flow(word[0], s, q),
                             h, richardson)
        vm = _reference_word(word[1:], f, geo.generator_flow(word[0], -s, q),
                             h, richardson)
        return (vp - vm) / (2.0 * s)

    d1 = central(h)
    return (4.0 * central(h / 2.0) - d1) / 3.0 if richardson else d1


def _batch(n, seed):
    rng = np.random.default_rng(seed)
    pts = [geo.chart_to_ambient(geo.ChartPoint(
        "equidistant", rng.uniform(-1.3, 1.3), rng.uniform(-1, 1)))
        for _ in range(n)]
    return pts, geo.AmbientPoints.stack(pts)


def test_batched_words_reproduce_nested_differences_exactly():
    # arithmetic only, so the array and scalar evaluations round alike.  The
    # last operator has several words (one repeated, one with a zero
    # coefficient), callable coefficients and a constant term; however many
    # words, a batch calls f once on all their stencils
    f = lambda p: p.w0 * p.w1 + p.w2 * p.w2 * p.w0
    coeff = lambda p: p.w0 - 0.5 * p.w2
    words = [("K3",), ("M1", "K2"), ("K2", "K2"), ("K3", "M1", "K2"),
             ("M1", "M1", "K3")]
    operators = [(((1.0, word),), 0.0) for word in words]
    operators.append((((2.0, ("K3", "M1", "K2")), (coeff, ("K2", "K2")),
                       (-1.5, ("M1",)), (0.0, ("K3",)), (coeff, ()),
                       (0.25, ("K2", "K2"))), 0.75))
    pts, batch = _batch(5, 6)
    for terms, const in operators:
        expr = geo.OperatorExpr(terms=terms, constant_term=const)
        for richardson in (True, False):
            ref = []
            for q in pts:
                total = const * f(q) if const else 0.0
                for c, word in terms:
                    c = c(q) if callable(c) else c
                    if c != 0.0:
                        total = total + c * _reference_word(
                            word, f, q, 1e-3, richardson)
                ref.append(total)
            calls = []

            def counted(p):
                calls.append(len(p))
                return f(p)
            got = geo.apply_operator(expr, counted, batch, h=1e-3,
                                     richardson=richardson)
            k = 4 if richardson else 2
            # one call on the stencils of the words with nonzero coefficients
            used = {word for c, word in terms if c != 0.0}
            if const:
                used.add(())
            assert calls == [5 * sum(k ** len(word) for word in used)]
            assert got.shape == (5,)
            assert list(got) == ref
            assert [geo.apply_operator(expr, f, q, h=1e-3,
                                       richardson=richardson)
                    for q in pts] == ref


def test_batch_broadcasts_scalar_function_values():
    _, batch = _batch(4, 7)
    got = geo.apply_operator(geo.laplace_beltrami(), lambda p: 1.0, batch)
    assert got.shape == (4,) and np.all(np.abs(got) < 1e-12)
    got = geo.apply_operator(geo.laplace_beltrami(), lambda p: p.w0, batch,
                             h=1e-3)
    assert np.all(np.abs(got - 2.0 * batch.w0) <= 1e-8 * batch.w0)


def test_batch_guard_rejects_singular_point():
    expr = geo.OperatorExpr(terms=((lambda p: 1.0 / p.w2, ("K3",)),),
                            guards=(lambda p: p.w2,), name="test")
    pts, _ = _batch(3, 8)
    batch = geo.AmbientPoints.stack(pts + [geo.AmbientPoint(1.0, 0.0, 0.0)])
    with pytest.raises(SingularConfigurationError):
        geo.apply_operator(expr, lambda p: p.w0, batch)
    geo.apply_operator(expr, lambda p: p.w0, batch[:3])


def test_non_finite_values_raise():
    _, batch = _batch(3, 9)
    lb = geo.laplace_beltrami()
    bad = lambda p: np.where(p.w2 > batch.w2[1] - 1e-6, np.inf, p.w0)
    with pytest.raises(NonFiniteValueError):
        geo.apply_operator(lb, bad, batch)
    with pytest.raises(NonFiniteValueError):
        geo.apply_operator(lb, lambda p: math.nan, batch.point(0))
    mult = geo.OperatorExpr(terms=((1.0, ()),))
    with pytest.raises(NonFiniteValueError):
        geo.apply_operator(mult, lambda p: np.full(len(p), np.nan), batch)


def test_ambient_points_validated_like_ambient_point():
    with pytest.raises(OutOfDomainError):  # off the surface
        geo.AmbientPoints([1.0, 2.0], [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(OutOfDomainError):  # lower sheet
        geo.AmbientPoints([1.0, -math.cosh(0.5)], [0.0, math.sinh(0.5)],
                          [0.0, 0.0])
    with pytest.raises(OutOfDomainError):
        geo.AmbientPoints([1.0, 1.0], [0.0], [0.0])
    pts, batch = _batch(6, 10)
    assert len(batch) == 6
    assert [batch.point(i) for i in range(6)] == pts
    sub = batch[np.array([True, False] * 3)]
    assert [sub.point(i) for i in range(3)] == pts[::2]


def test_chart_coordinates_batch_matches_scalar_inversion():
    rng = np.random.default_rng(11)
    for chart in ("equidistant", "horicyclic", "elliptic-parabolic",
                  "hyperbolic-parabolic"):
        pts = [geo.chart_to_ambient(random_chart_point(chart, rng))
               for _ in range(50)]
        u1, u2 = geo.chart_coordinates(geo.AmbientPoints.stack(pts), chart)
        for q, a, b in zip(pts, u1, u2):
            cp = geo.ambient_to_chart(q, chart)
            assert abs(cp.u1 - a) <= 1e-13 * max(1.0, abs(a))
            assert abs(cp.u2 - b) <= 1e-13 * max(1.0, abs(b))


def test_semi_hyperbolic_map_on_arrays():
    rng = np.random.default_rng(12)
    mu, nu = rng.uniform(0.05, 4, 40), -rng.uniform(0.05, 4, 40)
    w = geo.semi_hyperbolic_to_ambient(mu, nu, SH_PARAMS)
    assert np.all(geo.on_sheet(*w))
    for k in range(40):
        q = geo.chart_to_ambient(geo.ChartPoint("semi-hyperbolic", mu[k],
                                                nu[k], SH_PARAMS))
        got = (w[0][k], w[1][k], w[2][k])
        assert np.allclose(got, (q.w0, q.w1, q.w2), rtol=1e-14, atol=1e-15)
