import math
from fractions import Fraction

import numpy as np
import pytest

from hypersint import specfun as sf
from hypersint.errors import (
    OutOfDomainError,
    ParameterPoleError,
)

# ---------------------------------------------------------------------------
# log_gamma
# ---------------------------------------------------------------------------

# frozen 30-digit references (computed once with arbitrary precision)
LOG_GAMMA_REFS = [
    (complex(0.5, 0), complex(0.572364942924700087, 0.0)),
    (complex(3.7, 0), complex(1.42807232666538813, 0.0)),
    (complex(1, 1), complex(-0.650923199301856339, -0.301640320467533198)),
    (complex(10, -30), complex(-13.7397636579971595, -85.4797639725164371)),
    (complex(60, 40), complex(171.953109592128687, 166.113791984099551)),
]


def test_log_gamma_exact_values():
    assert abs(sf.log_gamma(1.0)) < 1e-15
    assert abs(sf.log_gamma(5.0) - math.log(24.0)) < 1e-14
    assert abs(sf.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14


def test_log_gamma_frozen_references():
    for z, ref in LOG_GAMMA_REFS:
        got = sf.log_gamma(z)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (z, got, ref)


def test_log_gamma_pole():
    for z in (0.0, -3.0, -7):
        with pytest.raises(ParameterPoleError):
            sf.log_gamma(z)


def test_log_gamma_refuses_the_left_half_plane():
    # Re z < 1/2 off the poles: no argument of the package lies there
    for z in (0.3 + 1j, 0.49999, -2.5 + 4.0j, -4.2 - 0.7j, -3.5, 1e-8):
        with pytest.raises(OutOfDomainError, match="Re z < 1/2"):
            sf.log_gamma(z)
    assert sf.log_gamma(0.5).imag == 0.0


# ---------------------------------------------------------------------------
# Orthogonal polynomials
# ---------------------------------------------------------------------------

def test_laguerre_low_orders():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, x = rng.uniform(-0.9, 3), rng.uniform(0, 8)
        assert sf.laguerre(0, a, x) == 1.0
        assert abs(sf.laguerre(1, a, x) - (1 + a - x)) < 1e-14
    # hand recurrence: L2^0(x) = (x^2 - 4x + 2)/2
    assert abs(sf.laguerre(2, 0.0, 2.0) - (-1.0)) < 1e-14


def test_laguerre_orthogonality_quadrature():
    # the 7-node Gauss-Laguerre rule is exact for L_n L_m, n, m <= 6
    for a in (0.0, 0.5, 1.5):
        x, w = sf.gauss_rule(*sf.laguerre_recurrence(a, 7),
                             math.exp(sf.lgamma(a + 1.0)))
        for n in range(7):
            for m in range(n, 7):
                v = np.sum(w * sf.laguerre(n, a, x) * sf.laguerre(m, a, x))
                ref = 0.0 if n != m else \
                    math.exp(sf.lgamma(n + a + 1.0)) / math.factorial(n)
                assert abs(v - ref) <= 1e-9, (n, m, a)


def test_jacobi_low_orders():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b, x = rng.uniform(-0.9, 2), rng.uniform(-0.9, 2), rng.uniform(-1, 1)
        assert sf.jacobi(0, a, b, x) == 1.0
        p1 = (a + 1) + (a + b + 2) * (x - 1) / 2
        assert abs(sf.jacobi(1, a, b, x) - p1) < 1e-14
    # Legendre P2(1/2) = (3/4 - 1)/2 = -1/8
    assert abs(sf.jacobi(2, 0.0, 0.0, 0.5) - (-0.125)) < 1e-15


def test_jacobi_orthogonality_quadrature():
    # (1-x)^a (1+x)^b on (-1, 1) is 2^{a+b+1} u^b (1-u)^a on u = (1+x)/2,
    # whose 6-node rule is exact for P_n P_m, n, m <= 5
    lg = sf.lgamma
    for (a, b) in ((0.0, 0.0), (0.5, 1.5), (1.5, -0.3)):
        u, w = sf.gauss_rule(*sf.jacobi_recurrence(b, a, 6), math.exp(
            (a + b + 1) * math.log(2) + lg(a + 1) + lg(b + 1) - lg(a + b + 2)))
        x = 2.0 * u - 1.0
        for n in range(6):
            for m in range(n, 6):
                v = np.sum(w * sf.jacobi(n, a, b, x) * sf.jacobi(m, a, b, x))
                if n != m:
                    ref = 0.0
                else:
                    ref = math.exp(
                        (a + b + 1) * math.log(2) + lg(n + a + 1) + lg(n + b + 1)
                        - lg(n + a + b + 1) - math.log(2 * n + a + b + 1)
                        - lg(n + 1.0))
                assert abs(v - ref) <= 1e-9, (n, m, a, b)


def test_jacobi_complex_conjugation_symmetry():
    # P_n^{(a*, a)}(z*) = conj(P_n^{(a, a*)}(z))
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        n = int(rng.integers(0, 6))
        lhs = sf.jacobi(n, a.conjugate(), a, z.conjugate())
        rhs = np.conjugate(sf.jacobi(n, a, a.conjugate(), z))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("n", [0, 1, 2, [0, 0], [0, 1, 2]])
def test_one_result_type_at_every_degree(n):
    # complex parameters with a real argument give a complex result from
    # degree 0 on; real parameters keep a real one
    a = complex(-1.2, 0.3)
    for x in (0.0, np.array([[0.0], [0.5]])):
        for got in (sf.jacobi(n, a, a.conjugate(), x),
                    sf.laguerre(n, 0.5 + 0j, np.abs(x) + 1.0)):
            assert np.result_type(got) == np.complex128, (n, x)
        for got in (sf.jacobi(n, 1.5, 0.5, x), sf.laguerre(n, 0.5, x)):
            assert np.result_type(got) == np.float64, (n, x)
    assert sf.jacobi(n, a, a.conjugate(), 0.0)[()].tolist() == \
        sf.jacobi(n, a, a.conjugate(), 0j)[()].tolist()


def _jacobi_reference(n, a, b, x):
    # the scalar-degree recurrence as it stood before one recurrence served
    # every degree
    one = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if n == 0:
        return one
    p_prev = one
    p = (a + 1.0) * one + (a + b + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        den = 2.0 * k * (k + a + b) * (s - 2.0)
        c1 = (s - 1.0) * (s * (s - 2.0) * x + a * a - b * b)
        c2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p, p_prev = (c1 * p - c2 * p_prev) / den, p
    return p


def _laguerre_reference(n, a, x):
    # the scalar-degree recurrence as it stood before array degrees
    p_prev, p = np.ones_like(x), 1.0 + a - x
    if n == 0:
        return p_prev
    for k in range(1, n):
        p, p_prev = ((2 * k + 1 + a - x) * p - (k + a) * p_prev) / (k + 1), p
    return p


def _scalar_rows(f, degrees, params, x):
    """The reference f, one call per element of the broadcast degrees and
    parameters, each on its own row of x."""
    shape = np.broadcast(degrees, *params, x).shape
    cols = [np.broadcast_to(v, shape).reshape(-1) for v in (degrees, *params)]
    xs = np.broadcast_to(x, shape).reshape(-1)
    return np.array([f(int(n), *(v.item() for v in vs), np.array([xv]))[0]
                     for n, *vs, xv in zip(*cols, xs)]).reshape(shape)


def test_array_degrees_equal_scalar_calls_bit_for_bit():
    # one recurrence to the largest degree, each element read at its own:
    # per-row degrees and parameters against a node row, elementwise
    # degrees, unsorted rows, scalar degrees and a zero-size batch
    rng = np.random.default_rng(11)
    x = rng.uniform(-3.0, 30.0, 40)
    ns = np.array([[3], [0], [7], [1], [2], [14], [5]])
    a = rng.uniform(0.1, 3.0, (7, 1))
    b = -rng.uniform(1.0, 30.0, (7, 1))
    got = sf.jacobi(ns, a, b, x)
    assert got.shape == (7, 40)
    assert np.array_equal(got, np.array(
        [_jacobi_reference(int(n), float(ai), float(bi), x)
         for n, ai, bi in zip(ns[:, 0], a[:, 0], b[:, 0])]))
    for n, ai, bi in zip(ns[:, 0], a[:, 0], b[:, 0]):
        assert np.array_equal(sf.jacobi(int(n), float(ai), float(bi), x),
                              _jacobi_reference(int(n), float(ai), float(bi), x))
    flat_n = rng.integers(0, 9, 60)
    flat_a, flat_x = rng.uniform(0.0, 2.0, 60), rng.uniform(1.0, 5.0, 60)
    assert np.array_equal(sf.jacobi(flat_n, 1.3, -flat_a, flat_x),
                          _scalar_rows(_jacobi_reference, flat_n, (1.3, -flat_a), flat_x))
    assert sf.jacobi(np.zeros((0, 1), dtype=int), 1.0, 2.0, x).shape == (0, 40)
    for bad in ([[1], [-1]], [[1.5]], -1):
        with pytest.raises(OutOfDomainError):
            sf.jacobi(np.array(bad), 0.5, 1.0, x)


def test_array_degrees_in_the_interbasis_layout():
    # degrees on a leading axis, parameters and argument without it: the
    # shape of the interbasis a-integral's call, up to the wide well's N = 69
    rng = np.random.default_rng(14)
    x = 1.0 - 2.0 * rng.uniform(0.0, 1.0, (9, 35))
    ns = np.arange(70.0)[::-1].reshape(-1, 1, 1)
    d, nu = 2.38, 0.57
    got = sf.jacobi(ns, d, nu, x)
    assert got.shape == (70, 9, 35)
    for n in range(70):
        assert np.array_equal(got[69 - n], _jacobi_reference(n, d, nu, x))


def test_jacobi_vanishing_denominator_raises():
    # a + b = -3 makes the denominator 2k (k + a + b)(2k + a + b - 2)
    # vanish at k = 3: a degree n >= 3 on those parameters raises, on an
    # array and on a number, for complex and real parameters; degrees below
    # 3 keep the recurrence
    a = np.array([[0.5 + 0.25j], [1.0 - 0.5j]])
    b = np.array([[-3.5 - 0.25j], [2.0 + 0.5j]])
    z = np.linspace(-1.0, 1.0, 6) + 0.3j
    for n, aa, bb, x in ((np.array([[4], [3]]), a, b, z),
                         (3, 0.5 + 0.25j, -3.5 - 0.25j, z[1]),
                         (5, 0.5, -3.5, z.real)):
        with pytest.raises(ParameterPoleError, match="denominator vanishes"):
            sf.jacobi(n, aa, bb, x)
    low = sf.jacobi(np.array([[2], [1]]), a, b, z)
    a0, b0 = complex(a[0, 0]), complex(b[0, 0])
    assert np.array_equal(low[0], _jacobi_reference(2, a0, b0, z))


def test_laguerre_array_degrees_equal_scalar_calls_bit_for_bit():
    # per-column degrees (0 and 1 among them) and parameters against a node
    # row, elementwise degrees, a one-element column and a zero-size batch
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 60.0, 40)
    ns = np.array([[3], [0], [9], [1], [2], [14], [1], [0]])
    a = rng.uniform(0.1, 6.0, (8, 1))
    got = sf.laguerre(ns, a, x)
    assert got.shape == (8, 40)
    ref = np.array([_laguerre_reference(int(n), float(ai), x)
                    for n, ai in zip(ns[:, 0], a[:, 0])])
    assert np.array_equal(got, ref)
    assert np.array_equal(sf.laguerre(ns, 2.5, x), np.array(
        [_laguerre_reference(int(n), 2.5, x) for n in ns[:, 0]]))
    for n, ai in zip(ns[:, 0], a[:, 0]):
        assert np.array_equal(sf.laguerre(int(n), float(ai), x),
                              _laguerre_reference(int(n), float(ai), x))
    flat_n = rng.integers(0, 12, 60)
    flat_a, flat_x = rng.uniform(0.0, 4.0, 60), rng.uniform(0.0, 30.0, 60)
    assert np.array_equal(
        sf.laguerre(flat_n, flat_a, flat_x),
        [_laguerre_reference(int(n), ai, np.array([xi]))[0]
         for n, ai, xi in zip(flat_n, flat_a, flat_x)])
    one = sf.laguerre(np.array([[4]]), 1.5, x)
    assert one.shape == (1, 40)
    assert np.array_equal(one[0], _laguerre_reference(4, 1.5, x))
    assert sf.laguerre(np.zeros((0, 1), dtype=int), 1.0, x).shape == (0, 40)
    # whole-number float degrees read as their integers
    assert np.array_equal(sf.laguerre(ns.astype(float), a, x), ref)
    for bad in ([[1], [-1]], [[1.5]]):
        with pytest.raises(OutOfDomainError):
            sf.laguerre(np.array(bad), 0.5, x)


def _stieltjes_roots_reference(a, b, N, center):
    # one np.roots per real eigenvector, as before the stacked extraction;
    # the complex eigenvectors (of complex eigenvalues) are skipped
    a, b = sf._taylor_shift(a, center), sf._taylor_shift(b, center)
    _, vecs = np.linalg.eig(sf._stieltjes_matrix(a, b, N))
    found = [x for x in (np.roots(v.real[::-1])
                         for v in vecs.T if not np.any(v.imag)) if len(x) == N]
    out = list(found)
    for real in (True, False):
        idx = [i for i, x in enumerate(found) if np.isrealobj(x) == real]
        if idx:
            polished = sf._stieltjes_polish(a, b, np.array([found[i] for i in idx]))
            for i, th in zip(idx, polished + center):
                out[i] = th
    return out


# a family whose Van Vleck matrix has complex eigenvectors at N = 4 and 6
MIXED = (np.array([1.22, 1.23, 0.06, -0.86]), np.array([-1.78, -0.47, -0.37]))


def _families():
    from hypersint import potential1 as p1
    from hypersint import potential2 as p2
    for well in ((0.3, 0.2, 3.0), (1.0, 1.0 / math.sqrt(2.0), 2.0 * math.sqrt(2.0)),
                 (0.56, 0.095, 4.38)):
        p = p1.P1Params(*well)
        for chart, center in (("elliptic-parabolic", 1.0),
                              ("hyperbolic-parabolic", -1.0)):
            for form in ("printed", "derived"):
                for N in range(1, min(p.nmax, 12) + 1):
                    yield (*p1._p1_family(p, N, chart, form), N, center)
    for N in range(1, 4):
        yield (*p2._sh_family(p2.P2Params(0.1, 6.0, 1.0), (0.0, 1.0, 0.0)), N, 0.0)
    for N in (4, 6):
        yield (*MIXED, N, 0.5)


def test_stacked_root_extraction_equals_per_eigenvector_roots():
    count, nonreal = 0, 0
    for a, b, N, center in _families():
        got = sf._stieltjes_roots(a, b, N, center)
        ref = _stieltjes_roots_reference(a, b, N, center)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and np.array_equal(g, r)
        count += len(got)
        nonreal += sum(np.iscomplexobj(g) for g in got)
    assert count > 500 and nonreal > 0


def test_root_extraction_makes_one_eigvals_call_per_dtype(monkeypatch):
    # the real eigenvectors of a level form one stack, and the complex ones
    # (MIXED has four at N = 6) are not rooted
    from hypersint import potential1 as p1
    calls = []
    orig = np.linalg.eigvals

    def counted(m):
        calls.append(m.shape)
        return orig(m)
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    deep = p1._p1_family(p1.P1Params(0.3, 0.2, 3.0), 8, "elliptic-parabolic",
                          "derived")
    for (a, b), N, n_real in ((deep, 8, 9), (MIXED, 6, 3)):
        calls.clear()
        configs = sf._stieltjes_roots(a, b, N, 1.0)
        assert len(calls) == 1
        assert calls[0] == (len(configs), N, N) == (n_real, N, N)


def test_one_configuration_per_real_van_vleck_eigenvalue():
    # MIXED's Van Vleck matrix has complex eigenvalues at every N = 1..8,
    # and at N = 1 and 3 no real one: the configurations are exactly the
    # real eigenvalues' (their eigenvectors' top coefficients are not 0
    # here), so N + 1 less their number counts the complex ones
    a, b = MIXED
    counts = []
    for N in range(1, 9):
        ta, tb = sf._taylor_shift(a, 0.5), sf._taylor_shift(b, 0.5)
        vals = np.linalg.eigvals(sf._stieltjes_matrix(ta, tb, N))
        configs = sf._stieltjes_roots(a, b, N, 0.5)
        assert len(configs) == np.sum(vals.imag == 0)
        assert all(th.shape == (N,) for th in configs)
        counts.append(N + 1 - len(configs))
    assert counts == [2, 2, 4, 4, 4, 4, 6, 6]


# ---------------------------------------------------------------------------
# Hypergeometric functions
# ---------------------------------------------------------------------------

def test_hyp3f2_unit_small_cases():
    assert sf.hyp3f2_unit(0, 1.3, 0.2, 0.9, 1.1) == (1.0, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        b, c, d, e = rng.uniform(0.3, 3, size=4)
        got, ratio = sf.hyp3f2_unit(1, b, c, d, e)
        t1 = b * c / (d * e)
        assert abs(got - (1 - t1)) < 1e-14
        assert ratio == pytest.approx((1 + t1) / abs(1 - t1), rel=1e-13)


def test_hyp3f2_unit_vs_rational_arithmetic():
    # exact-fraction oracle: parameters from small integers/half-integers
    rng = np.random.default_rng(5)
    halves = [Fraction(k, 2) for k in range(1, 12)]
    for _ in range(40):
        n = int(rng.integers(0, 6))
        b, c, d, e = (halves[rng.integers(0, len(halves))] for _ in range(4))
        exact = Fraction(0)
        term = Fraction(1)
        for k in range(n + 1):
            exact += term
            term = term * (-n + k) * (b + k) * (c + k)
            term /= (d + k) * (e + k) * (k + 1)
        got = sf.hyp3f2_unit(n, float(b), float(c), float(d), float(e))[0]
        assert abs(got - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))


def test_hyp3f2_unit_pole():
    with pytest.raises(ParameterPoleError):
        sf.hyp3f2_unit(3, 0.5, 0.5, -1.0, 2.0)


def test_hahn_low_orders():
    a, b, x, N = 0.3, 0.6, 2.0, 7.0
    assert sf.hahn(0, a, b, x, N) == (1.0, 1.0)
    # two-term sum by hand: -(N-1)(b+1) + (a+b+2) x
    ref = -(N - 1) * (b + 1) + (a + b + 2) * x
    assert abs(sf.hahn(1, a, b, x, N)[0] - ref) < 1e-13


def test_hahn_matches_direct_3f2_assembly():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
        x = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        N = complex(rng.uniform(3, 9), rng.uniform(-1, 1))
        n = 2
        pref = (sf.pochhammer(N - n, n) * sf.pochhammer(b + 1, n)
                * (-1) ** n / math.factorial(n))
        ref = pref * sf.hyp3f2_unit(n, a + b + n + 1, -x, b + 1, 1 - N)[0]
        got = sf.hahn(n, a, b, x, N)[0]
        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


# The scalar recurrences that the array kernels replaced, as they stood.
# Complex parameters enter them as two-element arrays, so that every
# complex product and quotient takes numpy's array loop, as in the kernels:
# Python, numpy's scalars and numpy's in-place products of one element
# round some of them differently in the last bit.

def _hyp3f2_terms_reference(n, b, c, d, e):
    terms = [1.0 + 0.0j]
    for k in range(n):
        den = (d + k) * (e + k) * (k + 1.0)
        if np.any(den == 0):
            raise ParameterPoleError(k)
        terms.append(terms[-1] * (-n + k) * (b + k) * (c + k) / den)
    return terms


def _compensated_sum_reference(terms):
    total = terms[0]
    comp = 0.0 + 0.0j
    for term in terms[1:]:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _hyp3f2_reference(n, b, c, d, e):
    """(sum, sum|t_k| / |sum t_k|), the ratio's mass summed in order."""
    terms = _hyp3f2_terms_reference(n, b, c, d, e)
    total, mass = _compensated_sum_reference(terms), 1.0
    for t in terms[1:]:
        mass += abs(t)
    return total, mass / abs(total) if np.all(total != 0) else math.inf


def _pochhammer_reference(a, n):
    out = 1.0 + 0.0j
    for k in range(n):
        out *= a + k
    return out


def _hahn_reference(n, alpha, beta, x, N):
    pref = (-1.0) ** n / math.factorial(n) * _pochhammer_reference(N - n, n) \
        * _pochhammer_reference(beta + 1.0, n)
    total, ratio = _hyp3f2_reference(n, alpha + beta + n + 1.0, -x, beta + 1.0,
                                     1.0 - N)
    return pref * total, ratio


def _elements(f, n, *params, cast):
    """f of each element of the broadcast (n, *params), its own degree."""
    shape = np.broadcast(n, *params).shape
    cols = [np.broadcast_to(v, shape).ravel() for v in (n, *params)]
    out = [f(int(k), *map(cast, vs)) for k, *vs in zip(*cols)]

    def gather(vals):
        return np.array([np.ravel(v)[0] for v in vals]).reshape(shape)
    return [gather(v) for v in zip(*out)] if isinstance(out[0], tuple) else gather(out)


def _assert_same(got, want, real):
    if real:
        assert np.isrealobj(got) and not np.any(np.imag(want))
        want = np.real(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("real", (True, False))
def test_array_kernels_equal_the_scalar_recurrences_bit_for_bit(real):
    # one call over mixed degrees (0 among them, unsorted, the top one held
    # by one element) and parameters, against one scalar call per element,
    # for 3F2, Hahn and Pochhammer
    rng = np.random.default_rng(21)
    n = rng.integers(0, 15, (5, 7))
    n[0, 0], n[2, 3] = 0, 18

    def draw(shape, lo, hi):
        v = rng.uniform(lo, hi, shape)
        return v if real else v + 1j * rng.uniform(-1.0, 1.0, shape)
    cast = float if real else (lambda v: np.array([v, v]))
    b, c = draw((5, 1), -12.0, 12.0), draw((5, 7), -12.0, 12.0)
    d, e = draw((1, 7), 0.3, 9.0), draw((5, 7), 0.3, 9.0)
    got = sf.hyp3f2_unit(n, b, c, d, e)
    want = _elements(_hyp3f2_reference, n, b, c, d, e, cast=cast)
    assert got[0].shape == got[1].shape == (5, 7)
    _assert_same(got[0], want[0], real)
    assert np.array_equal(got[1], want[1])
    x, big_n = draw((5, 7), -6.0, 6.0), draw((5, 1), 16.0, 30.0)
    got = sf.hahn(n, 0.7, d, x, big_n)
    want = _elements(_hahn_reference, n, 0.7, d, x, big_n, cast=cast)
    _assert_same(got[0], want[0], real)
    assert np.array_equal(got[1], want[1])
    _assert_same(sf.pochhammer(c, n), _elements(
        lambda k, a: _pochhammer_reference(a, k), n, c, cast=cast), real)
    # scalar calls give numbers
    first = [v[0, 0] for v in (b, c, d, e)]
    one = sf.hyp3f2_unit(4, *first)
    assert np.ndim(one[0]) == np.ndim(one[1]) == 0
    _assert_same(one[0], np.ravel(_hyp3f2_reference(4, *map(cast, first))[0])[0],
                 real)


def test_hyp3f2_pole_only_below_an_elements_degree():
    # (d)_k vanishes at k = 1 for d = -1: an element of degree 1 never takes
    # that step, one of degree 2 does
    for n in ([1, 3], [[1], [0]], 1):
        sf.hyp3f2_unit(n, 0.5, 0.5, [-1.0, 2.0], 2.0)
    for n in ([2, 3], [[0], [2]], 2):
        with pytest.raises(ParameterPoleError, match="k = 1"):
            sf.hyp3f2_unit(n, 0.5, 0.5, [-1.0, 2.0], 2.0)
    for bad in (-1, [1, 2.5]):
        with pytest.raises(OutOfDomainError):
            sf.hyp3f2_unit(bad, 0.5, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Gauss rules
# ---------------------------------------------------------------------------

def test_integrate_exponential():
    # the 2-node Gauss-Laguerre rule integrates x^j e^{-x}, j <= 3, to j!
    x, w = sf.gauss_rule(*sf.laguerre_recurrence(0.0, 2), 1.0)
    for j in range(4):
        assert abs(np.sum(w * x**j) - math.factorial(j)) < 1e-14 * math.factorial(j)


def test_integrate_beta_identity_fixture():
    # int_0^inf sinh t cosh^-3 t dt = B(1,1)/2 = 1/2: in x = sech^2 t the
    # integrand is (1/2) x^0 (1-x)^0, exact on the Gauss-Legendre rule
    x, w = sf.gauss_rule(*sf.jacobi_recurrence(0.0, 0.0, 2), 1.0)
    t = np.arcsinh(np.sqrt((1.0 - x) / x))
    # dt = dx / (2 x sqrt(1-x))
    v = np.sum(w * np.sinh(t) / np.cosh(t) ** 3 / (2.0 * x * np.sqrt(1.0 - x)))
    assert abs(v - 0.5) < 1e-12


def test_integrate_legendre_orthogonality():
    # P_2 P_3 on the 3-node Gauss-Legendre rule, moved to (-1, 1)
    u, w = sf.gauss_rule(*sf.jacobi_recurrence(0.0, 0.0, 3), 1.0)
    x = 2.0 * u - 1.0
    assert abs(np.sum(w * (3 * x**2 - 1) / 2 * (5 * x**3 - 3 * x) / 2)) < 1e-14


def test_integrate_beta_random_parameters():
    # the K-node rule of x^a (1-x)^b integrates x^j, j <= 2K - 1, to
    # B(a+1+j, b+1), relative 1e-12, for random exponents down to -0.99
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.uniform(-0.99, 6.0, size=2)
        K = int(rng.integers(1, 12))
        x, w = sf.gauss_rule(*sf.jacobi_recurrence(a, b, K), math.exp(
            sf.lgamma(a + 1) + sf.lgamma(b + 1) - sf.lgamma(a + b + 2)))
        assert np.all((x > 0.0) & (x < 1.0) & (w > 0.0))
        for j in range(2 * K):
            ref = math.exp(sf.lgamma(a + 1 + j) + sf.lgamma(b + 1) - sf.lgamma(a + b + 2 + j))
            assert abs(np.sum(w * x**j) - ref) <= 1e-12 * ref, (a, b, K, j)


def test_integrate_deterministic():
    coeffs = sf.jacobi_recurrence(np.array([[0.3], [1.7]]), 2.5, 9)
    assert sf.gauss_rule(*coeffs, np.array([1.0, 2.0]))[0].shape == (2, 9)
    for a, b in zip(sf.gauss_rule(*coeffs, np.array([1.0, 2.0])),
                    sf.gauss_rule(*coeffs, np.array([1.0, 2.0]))):
        assert np.array_equal(a, b)


def test_stacked_rules_equal_single_rules():
    # a stack of weights gives each weight's own rule
    a = np.array([[0.3], [1.7], [-0.5]])
    x, w = sf.gauss_rule(*sf.jacobi_recurrence(a, 2.5, 7), np.ones(3))
    for i, ai in enumerate(a[:, 0]):
        xi, wi = sf.gauss_rule(*sf.jacobi_recurrence(ai, 2.5, 7), 1.0)
        assert np.allclose(x[i], xi, rtol=1e-14, atol=0.0)
        assert np.allclose(w[i], wi, rtol=1e-13, atol=0.0)
