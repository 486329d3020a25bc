import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from hypersint import interbasis as ib
from hypersint import potential1 as p1
from hypersint import specfun as sf
from hypersint.errors import NonFiniteValueError
from hypersint.potential1 import P1State


def test_n0_entry_is_plus_one(p1_fixture):
    for method in (ib.w_quadrature, ib.w_3f2, ib.w_hahn):
        w = method(p1_fixture, 0)
        assert w.entries.shape == (1, 1)
        assert abs(w.entries[0, 0] - 1.0) <= 1e-12


def test_three_method_agreement(p1_fixture):
    for N in range(3):
        wq = ib.w_quadrature(p1_fixture, N)
        w3 = ib.w_3f2(p1_fixture, N)
        wh = ib.w_hahn(p1_fixture, N)
        assert np.max(np.abs(wq.entries - w3.entries)) <= 1e-8
        assert np.max(np.abs(w3.entries - wh.entries)) <= 1e-10


def test_orthogonality(p1_fixture):
    for N in range(3):
        w = ib.w_3f2(p1_fixture, N)
        assert ib.orthogonality_defect(w) <= 1e-8
        # rows and columns both orthonormal
        g = w.entries @ w.entries.T
        assert np.max(np.abs(g - np.eye(N + 1))) <= 1e-8


def test_row_norms_unity(p1_fixture):
    w = ib.w_quadrature(p1_fixture, 1)
    norms = np.linalg.norm(w.entries, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-8


def test_pointwise_expansion(p1_fixture):
    for N in range(3):
        w = ib.w_3f2(p1_fixture, N)
        assert ib.verify_expansion(p1_fixture, N, w) <= 1e-6


def test_pointwise_expansion_second_parameter_set():
    p = p1.P1Params(0.8, 0.6, 2.7)
    assert p.nmax == 2
    for N in range(3):
        w = ib.w_3f2(p, N)
        assert np.max(np.abs(ib.w_quadrature(p, N).entries - w.entries)) <= 1e-8
        assert ib.orthogonality_defect(w) <= 1e-8
        assert ib.verify_expansion(p, N, w) <= 1e-6


def test_residual_invariant_under_compensated_sign_flip(p1_fixture):
    # flipping a basis function's sign while flipping the matching W column
    # leaves the expansion identity unchanged
    w = ib.w_3f2(p1_fixture, 1)
    flipped = ib.InterbasisMatrix(
        w.N, w.method, w.variant, w.entries * np.array([1.0, -1.0]),
        w.rows, w.cols)
    base = ib.verify_expansion(p1_fixture, 1, w)
    rng = np.random.default_rng(3)
    a_pts = rng.uniform(0.2, 1.5, size=25)
    b_pts = rng.uniform(-1.0, 1.0, size=25)
    x_pts = np.exp(b_pts) * np.tanh(a_pts)
    y_pts = np.exp(b_pts) / np.cosh(a_pts)
    eq_vals = np.array(
        [sgn * p1.p1_wf_equidistant(P1State(p1_fixture, "equidistant", nm),
                                    a_pts, b_pts)
         for sgn, nm in zip((1.0, -1.0), w.cols)])
    worst = 0.0
    for i, (n1, n2) in enumerate(w.rows):
        hc = p1.p1_wf_horicyclic(P1State(p1_fixture, "horicyclic", (n1, n2)),
                                 x_pts, y_pts)
        worst = max(worst, float(np.max(np.abs(
            hc - flipped.entries[i, :] @ eq_vals))))
    assert worst <= 1e-6 + base


def test_laguerre_asymptotic_limit():
    # lim L_n^a(x) -> (-1)^n x^n / n! governs the large-b reduction; the
    # first correction is -n(n+a)/x, so the ratio is within 1e-4 of 1 at
    # x = 1e4 once that rate is accounted for, and shrinks ~10x at x = 1e5
    for n in range(4):
        for a in (0.5, 1.5, 3.2):
            devs = []
            for x in (1.0e4, 1.0e5):
                ratio = sf.laguerre(n, a, x) / ((-1.0) ** n * x**n
                                                / math.factorial(n))
                devs.append(abs(ratio - 1.0))
                assert abs(ratio - 1.0) <= 1e-4 * (1.0 + n * (n + a))
            assert devs[1] <= 0.15 * devs[0] + 1e-12


def test_jacobi_to_2f1_conversion():
    # P_n^{(al,be)}(x) = (-1)^n Gamma(n+be+1)/(Gamma(be+1) n!)
    #                    2F1(-n, n+al+be+1; be+1; (1+x)/2), with mpmath's 2F1
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(4)
    for n in range(5):
        for _ in range(10):
            al, be = rng.uniform(-0.4, 2.0), rng.uniform(-0.4, 2.0)
            x = rng.uniform(-0.95, 0.95)
            lhs = sf.jacobi(n, al, be, x)
            pref = ((-1.0) ** n
                    * math.exp(sf.lgamma(n + be + 1.0) - sf.lgamma(be + 1.0))
                    / math.factorial(n))
            rhs = pref * float(mp.hyp2f1(-n, n + al + be + 1.0, be + 1.0, (1 + x) / 2))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_hahn_argument_bookkeeping(p1_fixture):
    # canonical Hahn arguments: x = mu + m, N-parameter = mu + m - d - n1;
    # the published display sits one unit away and disagrees with its own
    # 3F2 form, which the printed-variant comparison exposes
    p = p1_fixture
    w3p = ib.w_3f2(p, 1, variant="printed")
    whp = ib.w_hahn(p, 1, variant="printed")
    assert np.max(np.abs(w3p.entries - whp.entries)) > 1e-3


def test_printed_chain_internally_consistent_but_not_orthogonal(p1_fixture):
    # the published integral and 3F2 forms agree with each other at low
    # levels (the derivation chain is sound), but the produced matrix is
    # not a change of basis between orthonormal sets
    for N in (0, 1):
        wq = ib.w_quadrature(p1_fixture, N, variant="printed")
        w3 = ib.w_3f2(p1_fixture, N, variant="printed")
        assert np.max(np.abs(wq.entries - w3.entries)) <= 1e-10
        assert ib.orthogonality_defect(w3) > 0.5


def test_orthogonality_defect_of_an_overflowing_matrix_is_inf():
    # s = 229: the printed prefactors reach 1e215, so W^T W overflows; the
    # defect is inf (null in the report), with no RuntimeWarning
    p = p1.P1Params(0.8021189901441927, 0.055414650975510134, 4.235214784107855)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in range(3):
            w = ib.w_3f2(p, N, variant="printed")
            assert np.max(np.abs(w.entries)) > 1e200
            assert ib.orthogonality_defect(w) == math.inf
            assert ib.orthogonality_defect(ib.w_3f2(p, N)) <= 1e-8


def test_printed_n0_value(p1_fixture):
    # hand evaluation of the published closed form at the fixture:
    # (1/2) Gamma(4.5) sqrt(4.5/(Gamma(2.5) Gamma(5.5))) = 1.47902...
    w = ib.w_3f2(p1_fixture, 0, variant="printed")
    assert abs(w.entries[0, 0] - 1.4790199457749) <= 1e-10


def test_multiplet_n2_eigenvalues(p1_fixture):
    from hypersint.algebra import n2_horicyclic_eigenvalues

    assert np.allclose(n2_horicyclic_eigenvalues(p1_fixture, 2),
                       [-37.0, -41.0, -45.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Frozen reference: the per-entry loops that built the matrices before the
# per-column tables, with one specfun call per sum.  The production 3F2 and
# Hahn entries must reproduce them bit for bit; the quadrature entries must
# match them with the a-integral taken by mpmath.
# ---------------------------------------------------------------------------

DEEP = p1.P1Params(0.3, 0.2, 3.0)  # nmax = 14
WIDE = p1.P1Params(0.56, 0.095, 4.38)  # nmax = 69
_REF_SQRT2 = math.sqrt(2.0)


_ref_lg = sf.lgamma


def _ref_log_k0(p, N, n, m, n1, n2, mu, nu):
    d = p.d
    sb = _REF_SQRT2 * p.beta
    log_chat = 0.5 * (math.log(2.0) + math.log(nu) - math.log(sb))
    log_c1 = 0.5 * (_ref_lg(n1 + 1.0) + 0.5 * math.log(sb) - _ref_lg(n1 + d + 1.0))
    log_c2 = 0.5 * (math.log(2.0) + _ref_lg(n2 + 1.0) + 0.5 * math.log(sb)
                    - _ref_lg(n2 + nu + 1.0))
    log_cm = 0.5 * (math.log(2.0 * mu) + _ref_lg(m + 1.0) - _ref_lg(m + mu + 1.0))
    return (_ref_lg(m + 1.0) + math.log(mu) - math.log(nu) + log_chat
            + log_c1 + log_c2 - log_cm - _ref_lg(n1 + 1.0) - _ref_lg(n2 + 1.0))


def _ref_log_an(p, n, mu, nu):
    d = p.d
    return 0.5 * (math.log(2.0 * nu) + _ref_lg(mu - n) + _ref_lg(n + 1.0)
                  - _ref_lg(mu - d - n) - _ref_lg(1.0 + n + d))


def _ref_a_integral(p, n, mu, cosh_pow, sinh_pow):
    # int_0^inf sinh^sinh_pow cosh^cosh_pow P_n^{(d,-mu)}(cosh 2a) da by
    # mpmath's tanh-sinh rule, with the polynomial as its explicit sum
    # cosh^{2n} a sum_k C(n+d, n-k) C(n-mu, k) tanh^{2k} a
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        coeffs = [mp.binomial(n + mp.mpf(p.d), n - k) * mp.binomial(n - mp.mpf(mu), k)
                  for k in range(n, -1, -1)]

        def integrand(a):
            sh, ch = mp.sinh(a), mp.cosh(a)
            return (sh ** sinh_pow * ch ** (cosh_pow + 2 * n)
                    * mp.polyval(coeffs, (sh / ch) ** 2))

        return float(mp.quad(integrand, [0, 2, mp.inf]))


def _ref_signed_pochhammer_log(a, n):
    sign = 1.0
    logmag = 0.0
    for k in range(n):
        v = a + k
        if v == 0.0:
            return 0.0, -math.inf
        sign *= math.copysign(1.0, v)
        logmag += math.log(abs(v))
    return sign, logmag


def _ref_entry(method, variant, p, N, n, m, n1, n2):
    lg = _ref_lg
    d = p.d
    nu = p1.p1_nu(p, N)
    mu = p1.p1_mu(p, m)
    if method == "quadrature" and variant == "canonical":
        val = _ref_a_integral(p, n, mu, -(1.0 + 2.0 * mu + 2.0 * m),
                              1.0 + 2.0 * d + 2.0 * n1)
        logk = _ref_log_k0(p, N, n, m, n1, n2, mu, nu) + _ref_log_an(p, n, mu, nu)
        return (-1.0) ** n * math.exp(logk) * val
    if method == "quadrature":
        val = _ref_a_integral(p, n, mu, 1.0 - 2.0 * mu - 2.0 * m,
                              1.0 + 2.0 * d + 2.0 * n1)
        logk = 0.5 * (
            lg(m + 1.0) + lg(n + 1.0) + math.log(_REF_SQRT2 * p.beta)
            + math.log(mu - d - 2.0 * n - 1.0) + lg(mu + m + 1.0)
            + lg(mu - n) - lg(n1 + 1.0) - lg(n2 + 1.0) - math.log(mu)
            - lg(n1 + d + 1.0) - lg(n2 + d + 1.0) - lg(n + d + 1.0)
            - lg(mu - d - n))
        return (-1.0) ** n * math.exp(logk) * val
    if method == "3f2" and variant == "canonical":
        f32 = sf.hyp3f2_unit(n, n + d - mu + 1.0, -mu - m,
                             1.0 - mu, 1.0 + d + n1 - mu - m)[0]
        sgn, logp = _ref_signed_pochhammer_log(1.0 - mu, n)
        logmag = (_ref_log_k0(p, N, n, m, n1, n2, mu, nu)
                  + _ref_log_an(p, n, mu, nu) + logp - lg(n + 1.0)
                  - math.log(2.0) + lg(1.0 + d + n1)
                  + lg(mu + m - d - n1) - lg(1.0 + mu + m))
        return sgn * math.exp(logmag) * f32
    if method == "3f2":
        f32 = sf.hyp3f2_unit(n, n + d - mu + 1.0, 1.0 - mu - m,
                             1.0 - mu, 2.0 + n1 + d - mu - m)[0]
        logmag = 0.5 * (
            lg(m + 1.0) + math.log(_REF_SQRT2 * p.beta)
            + math.log(mu - d - 2.0 * n - 1.0) + math.log(mu + m)
            + lg(n1 + d + 1.0) - lg(n + 1.0) - lg(n1 + 1.0)
            - lg(n2 + 1.0) - math.log(mu) - lg(n2 + d + 1.0)
            - lg(n + d + 1.0) - lg(mu - n - d)
            - lg(mu - n) - lg(mu + m))
        logmag += (lg(mu) + lg(mu + m - d - n1 - 1.0) - math.log(2.0))
        return (-1.0) ** n * math.exp(logmag) * f32
    if variant == "canonical":
        h = sf.hahn(n, d, -mu, mu + m, mu + m - d - n1)[0]
        logmag = (_ref_log_k0(p, N, n, m, n1, n2, mu, nu)
                  + _ref_log_an(p, n, mu, nu) - math.log(2.0)
                  + lg(1.0 + d + n1) + lg(mu + m - d - n1 - n)
                  - lg(1.0 + mu + m))
        return (-1.0) ** n * math.exp(logmag) * h
    h = sf.hahn(n, d, -mu, mu + m + 1.0, mu + m - d - n1 - 1.0)[0]
    logmag = 0.5 * (
        lg(m + 1.0) + lg(n + 1.0) + math.log(_REF_SQRT2 * p.beta)
        + math.log(mu - d - 2.0 * n - 1.0) + math.log(mu + m)
        - lg(n1 + 1.0) - lg(n2 + 1.0) - math.log(mu)
        - lg(n + d + 1.0) - lg(mu - n - d)
        + lg(n1 + d + 1.0) + lg(mu - n)
        - lg(n2 + d + 1.0) - lg(mu + m))
    logmag += lg(mu + m - d - n1 - n - 1.0) - math.log(2.0)
    return (-1.0) ** n * math.exp(logmag) * h


def _ref_matrix(method, variant, p, N):
    rows = p1.level_states_horicyclic(p, N)
    cols = p1.level_states_equidistant(p, N)
    ent = np.zeros((N + 1, N + 1))
    for i, (n1, n2) in enumerate(rows):
        for j, (n, m) in enumerate(cols):
            ent[i, j] = _ref_entry(method, variant, p, N, n, m, n1, n2)
    return ent


METHODS = ("quadrature", "3f2", "hahn")
VARIANTS = ("canonical", "printed")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("method", ("3f2", "hahn"))
def test_entries_bit_identical_to_per_entry_reference(p1_fixture, method, variant):
    build = getattr(ib, f"w_{method}")
    cases = [(p1_fixture, N) for N in range(3)] + [(DEEP, N) for N in (2, 6, 10, 14)]
    for p, N in cases:
        w = build(p, N, variant)
        assert np.array_equal(w.entries, _ref_matrix(method, variant, p, N)), (p, N)
        assert (w.method, w.variant, w.N) == (method, variant, N)


@pytest.mark.parametrize("variant", VARIANTS)
def test_quadrature_entries_match_mpmath_integral(p1_fixture, variant):
    # the exact rules against the original a-integral, taken by mpmath.
    # Entries can cancel far below their row (the printed integral is 0 at
    # (n, m) = (1, 0), n1 = 0 of the fixture, and the rule's terms of entry
    # (0, 0) at N = 6 on the deep well cancel 1.1e5-fold), so each error is
    # taken relative to the row's largest entry (measured: at most 4.6e-13)
    for p, N in [(p1_fixture, N) for N in range(3)] + [(DEEP, 2), (DEEP, 6)]:
        w = ib.w_quadrature(p, N, variant)
        want = _ref_matrix("quadrature", variant, p, N)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.max(np.abs(w.entries - want) / scale) <= 1e-12, (p, N)
        assert (w.method, w.variant, w.N) == ("quadrature", variant, N)


def test_gauss_jacobi_rules_are_exact(p1_fixture):
    # each row's rule of K = N//2 + 1 nodes integrates x^j, j <= 2K - 1,
    # against x^{d+n1} (1-x)^A on (0, 1) to B(d+n1+1+j, A+1), with
    # A = nu + n2 (printed: nu + n2 - 1); measured: at most 2.9e-14 relative
    mp = pytest.importorskip("mpmath")
    for p, levels in ((p1_fixture, range(3)), (DEEP, range(15))):
        for N, variant in itertools.product(levels, VARIANTS):
            lv = ib._Level(p, N, variant)
            x, w = ib._jacobi_rules(lv)
            assert x.shape == w.shape == (N + 1, N // 2 + 1)
            assert np.all((x > 0) & (x < 1) & (w > 0))
            for (n1, n2), xr, wr in zip(lv.rows, x, w):
                a = lv.nu + n2 - (variant == "printed")
                for j in range(2 * len(xr)):
                    want = float(mp.beta(p.d + n1 + 1 + j, a + 1))
                    assert abs(wr @ xr**j - want) <= 1e-13 * want, (p, N, n1, j)


@pytest.mark.parametrize("N", (54, 66))
def test_gauss_jacobi_rules_keep_small_weights_accurate(N):
    # on the wide well, row n1 = 0's smallest weights are 1e-30 to 1e-34 of
    # its largest; x^{2K-1} lives on them.  Christoffel weights integrate it
    # to its Beta value (measured 4.4e-15 and 6.1e-14 relative); squared
    # eigenvector components gave 3.3e-8 and 4.4e-6
    mp = pytest.importorskip("mpmath")
    lv = ib._Level(WIDE, N, "canonical")
    x, w = ib._jacobi_rules(lv)
    j = 2 * x.shape[1] - 1
    with mp.workdps(40):
        want = float(mp.beta(WIDE.d + 1 + j, lv.nu + N + 1))
    assert abs(w[0] @ x[0] ** j - want) <= 1e-12 * want


def _count_calls(monkeypatch, name, module=sf):
    calls = [0]
    orig = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return orig(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("N", (2, 14))
def test_quadrature_is_one_eigh_and_one_jacobi_call(monkeypatch, N):
    # the rules of all rows come from one stacked eigh and the polynomial
    # values of all columns from one recurrence; the Christoffel weights
    # come from the rule builder's own recurrence
    counts = {name: _count_calls(monkeypatch, name, module)
              for module, name in ((np.linalg, "eigh"), (sf, "jacobi"))}
    for variant in VARIANTS:
        for c in counts.values():
            c[0] = 0
        ib.w_quadrature(DEEP, N, variant)
        assert {k: c[0] for k, c in counts.items()} == {"eigh": 1, "jacobi": 1}


@pytest.mark.parametrize("variant", VARIANTS)
def test_work_counts_are_linear_in_the_level(monkeypatch, variant):
    # the same few calls at every level: one Jacobi call for all columns of
    # the quadrature, one terminating-sum call for all entries of the 3F2
    # and Hahn forms, and no Lanczos log-gamma (the real log-gamma is the
    # standard library's).  The per-entry loops made 117-3825 log-gamma
    # calls and, at N = 14, 481 Jacobi calls
    calls = {name: _count_calls(monkeypatch, name)
             for name in ("log_gamma", "jacobi", "hyp3f2_unit")}
    for method in METHODS:
        build = getattr(ib, f"w_{method}")
        for N in (6, 14):
            for c in calls.values():
                c[0] = 0
            build(DEEP, N, variant)
            assert {k: c[0] for k, c in calls.items()} == {
                "log_gamma": 0, "jacobi": int(method == "quadrature"),
                "hyp3f2_unit": int(method != "quadrature")}, (method, N)


def _independent_cancellation(p, N):
    # largest sum|t_k| / |sum t_k| of the canonical 3F2 sums, from terms
    # formed and summed here
    d = p.d
    worst = 0.0
    for n, m in p1.level_states_equidistant(p, N):
        mu = p1.p1_mu(p, m)
        for n1 in range(N + 1):
            b, c, e = n + d - mu + 1.0, -mu - m, 1.0 + d + n1 - mu - m
            terms = [1.0]
            for k in range(n):
                terms.append(terms[-1] * (k - n) * (b + k) * (c + k)
                             / ((1.0 - mu + k) * (e + k) * (k + 1.0)))
            worst = max(worst, math.fsum(map(abs, terms)) / abs(math.fsum(terms)))
    return worst


def _independent_quadrature_cancellation(p, N):
    # largest sum|w q| / |sum w q| of the canonical rules' terms, with
    # q_n(x) = (1-x)^n P_n^{(d,-mu)}((1+x)/(1-x))
    #        = sum_k C(n+d, n-k) C(n-mu, k) x^k formed and summed here
    mp = pytest.importorskip("mpmath")
    lv = ib._Level(p, N, "canonical")
    x, w = ib._jacobi_rules(lv)
    worst = 0.0
    for n, m in lv.cols:
        mu = p1.p1_mu(p, m)
        coeffs = [float(mp.binomial(n + p.d, n - k) * mp.binomial(n - mu, k))
                  for k in range(n + 1)]
        for xr, wr in zip(x.tolist(), w.tolist()):
            terms = [wi * math.fsum(c * xi**k for k, c in enumerate(coeffs))
                     for xi, wi in zip(xr, wr)]
            worst = max(worst, math.fsum(map(abs, terms)) / abs(math.fsum(terms)))
    return worst


def test_cancellation_ratio_reported_for_terminating_sums(p1_fixture):
    eps = sys.float_info.epsilon
    for method in (ib.w_quadrature, ib.w_3f2, ib.w_hahn):
        assert method(p1_fixture, 0).cancellation == 1.0
    # the quadrature's ratio is that of its Gauss rules' terms
    for p in (p1_fixture, DEEP, p1.P1Params(0.8, 0.6, 2.7)):
        want = _independent_quadrature_cancellation(p, 2)
        assert ib.w_quadrature(p, 2).cancellation == pytest.approx(want, rel=1e-6)
    for method in (ib.w_3f2, ib.w_hahn):
        assert method(p1_fixture, 0).cancellation == 1.0
        # well-conditioned cases (ratio <= 1e6), where the two summation
        # orders agree far below the 1e-6 bound; on the second set the
        # worst sum sits in row n1 = 1
        for p in (p1_fixture, DEEP, p1.P1Params(0.8, 0.6, 2.7)):
            want = _independent_cancellation(p, 2)
            got = method(p, 2).cancellation
            assert abs(got - want) <= 1e-6 * want
    # the published 3F2 display sums to exactly zero at (n, m) = (1, 0),
    # n1 = 0 of the fixture: total cancellation
    assert ib.w_3f2(p1_fixture, 1, "printed").cancellation == math.inf
    # the deep well loses orthogonality exactly where the sums cancel:
    # the defect stays below cancellation * eps (measured ratio <= 0.009)
    # the quadrature's terms cancel far less (measured 35, 1.1e5, 4.6e6 and
    # 1.2e7 against 3.1e5 to 7.9e16), and its defect tracks its own ratio
    ratios = []
    for N in (2, 6, 10, 14):
        w3, wh, wq = ib.w_3f2(DEEP, N), ib.w_hahn(DEEP, N), ib.w_quadrature(DEEP, N)
        assert w3.cancellation == pytest.approx(wh.cancellation, rel=1e-9)
        assert ib.orthogonality_defect(w3) <= w3.cancellation * eps
        assert wq.cancellation <= 1e-3 * w3.cancellation
        assert ib.orthogonality_defect(wq) <= 10.0 * wq.cancellation * eps
        ratios.append(w3.cancellation)
    assert ratios[0] < 1e6 and ratios[-1] > 1e16


def test_expansion_residual_propagates_nan_entries():
    # a NaN entry makes the residual NaN; the row-by-row Python max
    # skipped such rows and could report a finite residual
    w = ib.w_3f2(DEEP, 2)
    entries = w.entries.copy()
    entries[1, 0] = np.nan
    bad = ib.InterbasisMatrix(2, w.method, w.variant, entries, w.rows, w.cols)
    assert math.isnan(ib.verify_expansion(DEEP, 2, bad))


def test_quadrature_raises_on_non_finite_entries(monkeypatch):
    # one infinite polynomial value makes one entry infinite: the call
    # raises, and warns of nothing on the way
    jacobi = sf.jacobi

    def one_inf(*args):
        out = jacobi(*args)
        out.flat[0] = np.inf
        return out
    monkeypatch.setattr(sf, "jacobi", one_inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValueError, match=r"N = 2: 1 of 9 entries"):
            ib.w_quadrature(DEEP, 2)


def test_quadrature_finite_on_the_wide_well():
    # a regression test: Legendre rules in phi overflowed here; the exact
    # rules' nodes stay inside (0, 1), so every entry is finite, unwarned
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = ib.w_quadrature(WIDE, 35)
    assert w.entries.shape == (36, 36) and np.all(np.isfinite(w.entries))


def test_expansion_work_does_not_grow_with_the_level(monkeypatch):
    # each basis of a level is evaluated in one pass: the same few
    # polynomial calls at N = 6 as at N = 14 (they were 2 (N + 1) calls of
    # each wavefunction)
    p = p1.P1Params(0.3, 0.2, 3.0)
    calls = []
    for name in ("laguerre", "jacobi"):
        orig = getattr(sf, name)

        def counted(*args, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(sf, name, counted)
    counts = []
    for N in (6, 14):
        w = ib.w_3f2(p, N)
        calls.clear()
        assert math.isfinite(ib.verify_expansion(p, N, w))
        counts.append((calls.count("laguerre"), calls.count("jacobi")))
    assert counts[0] == counts[1] == (3, 1)
