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


def test_closed_forms_are_exact():
    # K3 w0 = w1, LB w0 = 2 w0 (a Casimir eigenfunction), LB 1 = 0
    _, batch = _batch(20, 4)
    lb = geo.laplace_beltrami()
    got = geo.apply_generator("K3", lambda p: p.w0, batch)
    assert np.all(np.abs(got - batch.w1) <= 1e-13 * np.abs(batch.w1))
    got = geo.apply_operator(lb, lambda p: p.w0, batch)
    assert np.all(np.abs(got - 2.0 * batch.w0) <= 1e-13 * 2.0 * batch.w0)
    got = geo.apply_operator(lb, lambda p: 1.0 + 0.0 * p.w0, batch)
    assert np.all(np.abs(got) <= 1e-13)


def test_commutators_numerically():
    # [K3, K2] = M1, [K2, M1] = -K3, [K3, M1] = K2, as differences of words
    rng = np.random.default_rng(5)
    f = lambda p: p.w0**2 * np.exp(-p.w0) + p.w1 * p.w2

    def comm(g1, g2, q):
        expr = geo.OperatorExpr(terms=((1.0, (g1, g2)), (-1.0, (g2, g1))))
        return geo.apply_operator(expr, f, q)

    for _ in range(5):
        q = geo.chart_to_ambient(geo.ChartPoint(
            "equidistant", rng.uniform(-1, 1), rng.uniform(-1, 1)))
        scale = max(abs(f(q)), 1.0)
        assert abs(comm("K3", "K2", q) - geo.apply_generator("M1", f, q)) \
            <= 1e-13 * scale
        assert abs(comm("K2", "M1", q) + geo.apply_generator("K3", f, q)) \
            <= 1e-13 * scale
        assert abs(comm("K3", "M1", q) - geo.apply_generator("K2", f, q)) \
            <= 1e-13 * scale


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
# Batched words
# ---------------------------------------------------------------------------

def _reference_word(word, f, q, h):
    """Nested central differences along exact flows with one Richardson
    level, one point at a time: an independent reference for the words,
    with truncation error O(h^4)."""
    if not word:
        return f(q)

    def central(s):
        vp = _reference_word(word[1:], f, geo.generator_flow(word[0], s, q), h)
        vm = _reference_word(word[1:], f, geo.generator_flow(word[0], -s, q), h)
        return (vp - vm) / (2.0 * s)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def _batch(n, seed):
    rng = np.random.default_rng(seed)
    pts = [geo.chart_to_ambient(geo.ChartPoint(
        "equidistant", rng.uniform(-1.3, 1.3), rng.uniform(-1, 1)))
        for _ in range(n)]
    return pts, geo.AmbientPoints.stack(pts)


def test_batched_words_match_nested_differences():
    # the last operator has several words (one repeated, one with a zero
    # coefficient), callable coefficients and a constant term; however many
    # words, a batch calls f once, on one block of jet points per distinct
    # word.  The reference's own error is estimated by halving its step
    f = lambda p: p.w0 * p.w1 + p.w2 * p.w2 * p.w0 + np.exp(-p.w0) * p.w2
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
        refs = []
        for h in (2e-2, 1e-2):
            ref = []
            for q in pts:
                total = const * f(q) if const else 0.0
                for c, word in terms:
                    c = c(q) if callable(c) else c
                    if c != 0.0:
                        total = total + c * _reference_word(word, f, q, h)
                ref.append(total)
            refs.append(np.array(ref))
        calls = []

        def counted(p):
            calls.append(len(p))
            return f(p)
        got = geo.apply_operator(expr, counted, batch)
        used = {word for c, word in terms if c != 0.0 and word}
        assert calls == [5 * len(used)]
        assert got.shape == (5,)
        # O(h^4): the error at h is 1/15 of the difference of the two steps
        err = np.abs(refs[0] - refs[1]) / 15.0
        assert np.all(np.abs(got - refs[1]) <= 2.0 * err + 1e-9)
        single = np.array([geo.apply_operator(expr, f, q) for q in pts])
        assert np.max(np.abs(single - got)) <= 1e-13 * np.max(np.abs(got))


def test_batch_broadcasts_scalar_function_values():
    _, batch = _batch(4, 7)
    got = geo.apply_operator(geo.laplace_beltrami(), lambda p: 1.0, batch)
    assert got.shape == (4,) and np.all(np.abs(got) < 1e-12)
    got = geo.apply_operator(geo.laplace_beltrami(), lambda p: p.w0, batch)
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
    # a finite value with an infinite derivative: sqrt(w2) at w2 = 0
    q = geo.chart_to_ambient(geo.ChartPoint("equidistant", 0.0, 0.5))
    assert np.sqrt(q.w2) == 0.0
    with pytest.raises(NonFiniteValueError):
        geo.apply_generator("M1", lambda p: np.sqrt(p.w2), q)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

# case: (numpy expression, mpmath expression, point).  The jet
# x0 + e1 + e2 + e3 carries the first three derivatives at x0 in its
# components 1, 3 and 7
JET_CASES = {
    "exp": (np.exp, "exp(x)", 0.3),
    "log": (np.log, "log(x)", 0.7),
    "log1p": (np.log1p, "log(1 + x)", 0.4),
    "sqrt": (np.sqrt, "sqrt(x)", 1.3),
    "sin": (np.sin, "sin(x)", 0.9),
    "cos": (np.cos, "cos(x)", 0.9),
    "sinh": (np.sinh, "sinh(x)", 0.8),
    "cosh": (np.cosh, "cosh(x)", 0.8),
    "tanh": (np.tanh, "tanh(x)", 0.5),
    "arctan": (np.arctan, "atan(x)", 0.6),
    "arctanh": (np.arctanh, "atanh(x)", 0.4),
    "arcsinh": (np.arcsinh, "asinh(x)", 0.7),
    "reciprocal": (lambda x: 2.0 / x, "2 / x", 0.6),
    "power": (lambda x: x**-0.5, "x**-0.5", 1.4),
    "square": (lambda x: x**2, "x**2", -1.1),
    "abs": (np.abs, "-x", -0.8),
    "arctan2-y": (lambda x: np.arctan2(x, -0.7), "atan2(x, -0.7)", 0.3),
    "arctan2-x": (lambda x: np.arctan2(0.7, x), "atan2(0.7, x)", -0.3),
    "minimum": (lambda x: np.minimum(x, 300.0) * x, "x * x", 0.8),
    "where": (lambda x: np.where(x > 0.0, np.exp(x), 0.0), "exp(x)", 0.8),
    "complex-log": (np.log, "log(x)", 0.4 + 0.9j),
    "complex-exp": (np.exp, "exp(x)", 0.4 + 0.9j),
    "complex-ratio": (lambda x: (1.0 + 1j * x) / (x * x - 2j),
                      "(1 + 1j*x) / (x*x - 2j)", 0.3),
}


@pytest.mark.parametrize("case", sorted(JET_CASES))
def test_jet_carries_exact_derivatives(case):
    mp = pytest.importorskip("mpmath")
    f, expr, x0 = JET_CASES[case]
    c = np.zeros(8, dtype=complex if isinstance(x0, complex) else float)
    c[[0, 1, 2, 4]] = x0, 1.0, 1.0, 1.0
    got = f(geo.Jet(c)).c
    g = lambda x: eval(expr, vars(mp), {"x": x})
    with mp.workdps(30):
        for comp, order in ((0, 0), (1, 1), (3, 2), (7, 3)):
            want = complex(mp.diff(g, mp.mpmathify(x0), order))
            assert abs(got[comp] - want) <= 1e-13 * max(1.0, abs(want)), comp


def test_jet_mixed_partials_of_two_arguments():
    # arctan2(y0 + e1, x0 + e2 + e3): components 3, 5 and 7 are the mixed
    # partials d_y d_x, d_y d_x and d_y d_x d_x
    mp = pytest.importorskip("mpmath")
    y, x = np.zeros(8), np.zeros(8)
    y[[0, 1]] = 0.4, 1.0
    x[[0, 2, 4]] = -0.9, 1.0, 1.0
    got = np.arctan2(geo.Jet(y), geo.Jet(x)).c
    with mp.workdps(30):
        for comp, orders in ((3, (1, 1)), (5, (1, 1)), (7, (1, 2))):
            want = float(mp.diff(mp.atan2, (0.4, -0.9), orders))
            assert abs(got[comp] - want) <= 1e-13 * max(1.0, abs(want))


def test_jet_refuses_coercion_and_unsupported_functions():
    x = geo.Jet(np.array([[0.5], [1.0]]))
    with pytest.raises(TypeError):
        np.asarray(x, dtype=float)
    with pytest.raises(TypeError):
        np.arccos(x)
    with pytest.raises(TypeError):
        np.abs(x * 1j)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_jet_series_stops_at_the_jet_order(k, monkeypatch):
    # d^(k+1) = 0 on a jet of order k (2^k components): the Taylor sum of an
    # elementary function or a power takes k - 1 products, and the jet
    # x0 + e1 + ... + ek carries f^(k)(x0) in its top component
    calls, conv = [], geo._conv
    monkeypatch.setattr(geo, "_conv", lambda a, b: calls.append(1) or conv(a, b))
    c = np.zeros(1 << k)
    c[0] = 0.7
    c[[1 << j for j in range(k)]] = 1.0
    for f, want in ((np.exp, math.exp(0.7)),
                    (lambda x: x**-0.5,
                     math.prod(-0.5 - i for i in range(k)) * 0.7 ** (-0.5 - k))):
        calls.clear()
        top = f(geo.Jet(c)).c[-1]
        assert len(calls) == max(k - 1, 0)
        assert abs(top - want) <= 1e-14 * abs(want)


def _reduceat_product(a, b):
    """The jet product by subset sums: np.add.reduceat over the pairs
    (S, T - S), S in T, grouped by T and added in order."""
    m = len(a)
    pairs = [(s, t ^ s) for t in range(m) for s in range(m) if s & t == s]
    ia, ib = np.array(pairs).T
    starts = np.flatnonzero(np.diff(ia | ib, prepend=-1))
    return np.add.reduceat(a[ia] * b[ib], starts, axis=0)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_jet_product_matches_subset_sums(m, dtype):
    # the matrix product only reorders each group's sum of at most 8 exact
    # terms, so it stays within a few ulps of the terms' absolute sum
    rng = np.random.default_rng(m)

    def draw(*shape):
        x = rng.normal(size=(m,) + shape)
        return x + 1j * rng.normal(size=x.shape) if dtype is complex else x
    for a, b in ((draw(3, 40), draw(3, 40)), (draw(1, 40), draw(3, 1))):
        got, want = geo._conv(a, b), _reduceat_product(a, b)
        assert got.shape == want.shape == (m, 3, 40) and got.dtype == want.dtype
        scale = _reduceat_product(np.abs(a), np.abs(b))
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * scale)


def test_jet_product_keeps_non_finite_components():
    a, b = np.ones((4, 5)), np.ones((4, 5))
    a[1, 2] = np.inf
    with np.errstate(invalid="ignore"):  # the 0/1 matrix forms 0 * inf
        got = geo._conv(a, b)
    # component 1 enters the groups T = 1 and T = 3 at point 2
    assert not np.isfinite(got[1, 2]) and not np.isfinite(got[3, 2])
    assert np.all(np.isfinite(np.delete(got, 2, axis=1)))
    # an infinite derivative inside a product still refuses the application
    _, batch = _batch(4, 13)
    f = lambda p: p.w0 * np.sqrt(np.abs(p.w2 - batch.w2[2]))
    with pytest.raises(NonFiniteValueError):
        geo.apply_operator(geo.laplace_beltrami(), f, batch)
    geo.apply_operator(geo.laplace_beltrami(), f, batch[np.array([0, 1, 3])])


def test_a_guard_of_any_operator_refuses_the_family():
    guarded = geo.OperatorExpr(terms=((lambda p: 1.0 / p.w2, ("K3",)),),
                               guards=(lambda p: p.w2,), name="test")
    pts, _ = _batch(3, 8)
    batch = geo.AmbientPoints.stack(pts + [geo.AmbientPoint(1.0, 0.0, 0.0)])
    calls = []

    def f(p):
        calls.append(len(p))
        return p.w0
    lb = geo.laplace_beltrami()
    for family in ((guarded, lb), (lb, guarded)):
        with pytest.raises(SingularConfigurationError, match="operator test"):
            geo.apply_operators(family, f, batch)
    assert calls == []
    got = geo.apply_operators((lb, guarded), f, batch[:3])
    assert calls == [3 * 4]  # K3 K3, K2 K2, M1 M1 and K3
    assert np.array_equal(got[1], geo.apply_operator(guarded, f, batch[:3]))


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


@pytest.mark.parametrize("chart", ["elliptic-parabolic", "hyperbolic-parabolic"])
def test_parabolic_coordinates_of_equidistant_points_need_no_round_trip(chart):
    # w0 - w1 = cosh t1 e^{-t2}, w2/(w0 - w1) = tanh t1 e^{t2} and
    # 2 w1/(w0 - w1) = e^{2 t2} - 1 give the inversion of the ambient
    # points (measured 4.0e-15), and the chart maps them back onto those
    # points (6.2e-15 relative)
    t1, t2 = geo.box_points(50, (0.05, -3.0), (3.0, 3.0)).T
    u1, u2 = geo.parabolic_coordinates(chart, np.cosh(t1) * np.exp(-t2),
                                       np.tanh(t1) * np.exp(t2), np.expm1(2.0 * t2))
    q = geo.chart_points("equidistant", t1, t2)
    r1, r2 = geo.chart_coordinates(q, chart)
    assert np.max(np.abs(u1 - r1)) <= 1e-13 and np.max(np.abs(u2 - r2)) <= 1e-13
    back = geo.chart_points(chart, u1, u2)
    for w in ("w0", "w1", "w2"):
        ref = getattr(q, w)
        assert np.max(np.abs(getattr(back, w) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13


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


# ---------------------------------------------------------------------------
# Sample designs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_box_points_is_a_fixed_nested_design_in_its_box(d):
    lo, hi = np.linspace(-1.0, 0.5, d), np.linspace(0.3, 2.0, d)
    x = geo.box_points(10, lo, hi)
    assert x.shape == (10, d)
    assert np.array_equal(x, geo.box_points(10, lo, hi))
    assert np.all((lo <= x) & (x <= hi))
    assert np.array_equal(geo.box_points(6, lo, hi), x[:6])
    # equidistributed: at n = 100 each coordinate hits every decile
    u = geo.box_points(100, np.zeros(d), np.ones(d))
    for col in u.T:
        assert set(np.floor(10.0 * col).astype(int).tolist()) == set(range(10))


def test_box_points_steps_by_the_inverse_golden_ratio_in_one_dimension():
    # alpha_j = g^-j with g^(d+1) = g + 1: g is the golden ratio for d = 1
    i = np.arange(1.0, 21.0)
    want = np.mod(0.5 + i * 2.0 / (1.0 + math.sqrt(5.0)), 1.0)
    got = geo.box_points(20, (0.0,), (1.0,))[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-14
