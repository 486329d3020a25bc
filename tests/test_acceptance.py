"""Acceptance suite: ten criteria, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced (pytest also shows them for any failing criterion).
"""

import json
import math
import time

import numpy as np

from hypersint import algebra as alg
from hypersint import cli as hcli
from hypersint import geometry as geo
from hypersint import interbasis as ib
from hypersint import potential1 as p1
from hypersint import potential2 as p2
from hypersint import specfun as sf

SQRT2 = math.sqrt(2.0)
P1FIX = p1.P1Params(1.0, 1.0 / SQRT2, 2.0 * SQRT2)
P2FIX = p2.P2Params(0.1, 3.0, 1.0)
P2DEEP = p2.P2Params(0.1, 6.0, 1.0)
CP0 = p2.DEFAULT_SH_PARAMS
HALFLINE = sf.QuadratureSpec("tanh-sinh", 8, 0.0, math.inf, "exp-map")
MORSE_DOMAIN = sf.QuadratureSpec("tanh-sinh", 8, -25.0, 5.0)


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def eq_points(seed, n, w2_positive=False):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        t1 = rng.uniform(0.3, 1.3)
        if not w2_positive and rng.uniform() < 0.5:
            t1 = -t1
        pts.append(geo.chart_to_ambient(
            geo.ChartPoint("equidistant", t1, rng.uniform(-1.0, 1.0))))
    return pts


def test_criterion_01_spectrum_fixture():
    t0 = time.monotonic()
    spectrum = p1.p1_spectrum(P1FIX)
    elapsed = time.monotonic() - t0
    energies = [lev["E"] for lev in spectrum]
    degs = [lev["degeneracy"] for lev in spectrum]
    ok = (len(spectrum) == 3
          and max(abs(e - t) for e, t in zip(energies, (-10.0, -3.0, 0.0))) <= 1e-12
          and degs == [1, 2, 3]
          and elapsed < 1.0)
    report(1, ok, f"levels E = {[round(e, 12) for e in energies]}, "
                  f"degeneracies {degs}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_cross_chart_quantization():
    worst = 0.0
    for N in range(3):
        e = p1.p1_energy(P1FIX, N)
        worst = max(worst,
                    abs(e - p1.p1_energy_from_horicyclic(P1FIX, N)),
                    abs(e - p1.p1_energy_from_elliptic_parabolic(P1FIX, N)))
    report(2, worst <= 1e-12,
           f"horicyclic/elliptic-parabolic quantization defect {worst:.2e}")


def test_criterion_03_orthonormality():
    t0 = time.monotonic()
    states = []
    for N in range(3):
        states += p1.level_states_equidistant(P1FIX, N)
    worst = 0.0
    for i, (ni, mi) in enumerate(states):
        for (nj, mj) in states[i:]:
            mui, muj = p1.p1_mu(P1FIX, mi), p1.p1_mu(P1FIX, mj)
            va, _ = sf.integrate(
                lambda t: p1.pt_factor(P1FIX, ni, mui, t)
                * p1.pt_factor(P1FIX, nj, muj, t), HALFLINE)
            vb, _ = sf.integrate(
                lambda t: p1.morse_factor(P1FIX, mi, t, mui)
                * p1.morse_factor(P1FIX, mj, t, muj), MORSE_DOMAIN)
            expect = 1.0 if (ni, mi) == (nj, mj) else 0.0
            worst = max(worst, abs(va * vb - expect))
    mu0 = p2.p2_mu(P2FIX, 0)
    vz, _ = sf.integrate(lambda t: p2.z_pt_factor(P2FIX, 0, mu0, t) ** 2,
                         HALFLINE)
    vs, _ = sf.integrate(
        lambda t: np.abs(p2.s2_complex_factor(P2FIX, 0, t)) ** 2,
        sf.QuadratureSpec("tanh-sinh", 8, -8.0, 8.0))
    worst_v2 = abs(vz * vs - 1.0)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7 and worst_v2 <= 1e-7 and elapsed < 30.0
    report(3, ok, f"v1 Gram defect {worst:.2e}, v2 norm defect "
                  f"{worst_v2:.2e}, {elapsed:.1f} s")


def test_criterion_04_eigen_residuals():
    pts = eq_points(41, 50)
    st = p1.P1State(P1FIX, "equidistant", (1, 1))
    r1 = alg.eigen_residual(alg.build_operator("L1", P1FIX),
                            p1.wf_ambient(st), p1.p1_mu(P1FIX, 1) ** 2, pts)
    sth = p1.P1State(P1FIX, "horicyclic", (1, 1))
    lam2 = -(2 * SQRT2 * P1FIX.beta * (2 + P1FIX.d + 1) + 2 * P1FIX.gamma**2)
    r2 = alg.eigen_residual(alg.build_operator("L2", P1FIX),
                            p1.wf_ambient(sth), lam2, pts)
    stw = p2.P2State(P2FIX, "equidistant", (0, 0))
    r3 = alg.eigen_residual(alg.build_operator("L1", P2FIX), p2.wf_ambient(stw),
                            p2.p2_mu(P2FIX, 0) ** 2, pts)
    ok = max(r1, r2, r3) <= 1e-6
    report(4, ok, f"L1 {r1:.2e}, L2 {r2:.2e}, v2-L1 {r3:.2e} at 50 points")


def test_criterion_05_bethe_roots():
    confs = p1.p1_ep_roots(P1FIX, 1, form="printed")
    got = sorted(c.roots[0] for c in confs)
    expect = sorted([(3 - math.sqrt(59)) / 2, (3 + math.sqrt(59)) / 2])
    root_ok = max(abs(g - e) for g, e in zip(got, expect)) <= 1e-10
    resub = 0.0
    for N in (1, 2):
        for form in ("printed", "derived"):
            for c in p1.p1_ep_roots(P1FIX, N, form=form):
                resub = max(resub, float(np.max(np.abs(p1.p1_ep_equations(
                    P1FIX, N, np.array(c.roots), form)))))
            for c in p1.p1_hp_roots(P1FIX, N, form=form):
                resub = max(resub, float(np.max(np.abs(p1.p1_hp_equations(
                    P1FIX, N, np.array(c.roots), form)))))
    for N in (1, 2):
        for c in p2.p2_sh_roots(P2DEEP, N, CP0):
            resub = max(resub, float(np.max(np.abs(p2.p2_sh_equations(
                P2DEEP, np.array(c.roots), CP0)))))
    ok = root_ok and resub <= 1e-10
    report(5, ok, f"printed N=1 roots (3+-sqrt59)/2 matched; worst "
                  f"re-substitution residual {resub:.2e}")


def test_criterion_06_interbasis():
    worst_agree = worst_orth = worst_pw = 0.0
    for N in range(3):
        wq = ib.w_quadrature(P1FIX, N)
        w3 = ib.w_3f2(P1FIX, N)
        wh = ib.w_hahn(P1FIX, N)
        worst_agree = max(worst_agree,
                          float(np.max(np.abs(wq.entries - w3.entries))),
                          float(np.max(np.abs(w3.entries - wh.entries))))
        worst_orth = max(worst_orth, ib.orthogonality_defect(w3))
        worst_pw = max(worst_pw, ib.verify_expansion(P1FIX, N, w3, n_points=50))
    ok = worst_agree <= 1e-8 and worst_orth <= 1e-8 and worst_pw <= 1e-6
    report(6, ok, f"three-method {worst_agree:.2e}, WtW-I {worst_orth:.2e}, "
                  f"pointwise {worst_pw:.2e}")


def test_criterion_07_linear_relations():
    fs = (lambda q: q.w2 * np.exp(-q.w0),
          lambda q: q.w0**2 / (1.0 + q.w2**2))
    pts = eq_points(43, 8)
    res_h = [max(r.residual for r in alg.check_linear_relations(
        P1FIX, fs, pts, h=h)) for h in (2e-3, 1e-3)]
    small = max(res_h) <= 1e-5
    if max(res_h) <= 1e-12:
        conv = "at round-off floor for both steps (identically cancelling)"
        order_ok = True
    else:
        order = math.log(res_h[0] / res_h[1]) / math.log(2.0)
        conv = f"order {order:.2f}"
        order_ok = order >= 1.9
    report(7, small and order_ok,
           f"(L3+L2+L1)f, (L4-L2+L1)f residuals {max(res_h):.2e}; {conv}")


def test_criterion_08_quadratic_algebra():
    w = ib.w_3f2(P1FIX, 2)
    rep = alg.multiplet_matrices(P1FIX, 2, w)
    pts = eq_points(47, 30)
    basis = [p1.wf_ambient(p1.P1State(P1FIX, "equidistant", nm))
             for nm in w.cols]
    r_proj = alg.project_operator(alg.build_operator("R", P1FIX), basis, pts,
                                  h=alg.R_STEP)
    scale = max(float(np.max(np.abs(rep.r_matrix))), 1.0)
    two_way = float(np.max(np.abs(r_proj - rep.r_matrix))) / scale
    reports = alg.check_quadratic_algebra(rep, P1FIX, tolerance=1e-6)
    reported = all("fitted_constant_offset" in r.notes
                   and "residual_with_shifted_N2" in r.notes for r in reports)
    shifted_ok = max(r.notes["residual_with_shifted_N2"] for r in reports) <= 1e-10
    status = {r.identity: ("pass" if r.passed else
                           f"defect reported (closes at "
                           f"{r.notes['residual_with_shifted_N2']:.1e} with "
                           f"N2+4g^2)") for r in reports}
    ok = two_way <= 1e-5 and reported and shifted_ok
    report(8, ok, f"R two-way {two_way:.2e}; identities: {status}")


def test_criterion_09_v2_branch_consistency():
    rng = np.random.default_rng(53)
    worst_e = worst_k = 0.0
    for _ in range(50):
        p = p2.P2Params(rng.uniform(0.05, 2.0), rng.uniform(0.5, 6.0),
                        rng.uniform(0.3, 3.0))
        worst_k = max(worst_k, abs(p.k1 - p.a))
        if p.nmax is not None:
            for N in range(min(p.nmax, 2) + 1):
                worst_e = max(worst_e, abs(
                    p2.p2_energy(p, N) - p2.p2_energy_semihyperbolic(p, N)))
    lb = geo.laplace_beltrami()
    pts = [geo.chart_to_ambient(geo.ChartPoint(
        "semi-hyperbolic", rng.uniform(0.3, 2.5), -rng.uniform(0.3, 2.5), CP0))
        for _ in range(10)]
    worst_pde = 0.0
    for N in (0, 1):
        e = p2.p2_energy(P2DEEP, N)
        for c in p2.p2_sh_roots(P2DEEP, N, CP0):
            st = p2.P2State(P2DEEP, "semi-hyperbolic", (N,), roots=c,
                            chart_params=CP0)

            def wf(q, st=st):
                return p2.p2_wf_semihyperbolic(st, q)
            for q in pts:
                psi = wf(q)
                hpsi = -0.5 * geo.apply_operator(lb, wf, q, h=1e-3) \
                    + p2.v2_ambient(P2DEEP, q) * psi
                worst_pde = max(worst_pde, abs(hpsi - e * psi) / abs(psi))
    ok = worst_e <= 1e-12 and worst_k <= 1e-13 and worst_pde <= 1e-6
    report(9, ok, f"energy match {worst_e:.2e}, k1-branch {worst_k:.2e}, "
                  f"semi-hyperbolic Schrodinger residual {worst_pde:.2e}")


def test_criterion_10_determinism(tmp_path):
    pairs = []
    for args in (["spectrum"],
                 ["roots", "--chart", "hyperbolic-parabolic", "--N", "2",
                  "--form", "derived"],
                 ["verify", "--suite", "linear-relations"]):
        outs = []
        for k in (0, 1):
            f = tmp_path / f"{args[0]}-{k}.json"
            code = hcli.main([*args, "--out", str(f)])
            assert code == 0
            outs.append(f.read_bytes())
        pairs.append(outs[0] == outs[1])
    report(10, all(pairs),
           f"byte-identical reruns for {len(pairs)} commands")
