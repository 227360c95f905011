"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All statistical criteria run on the reference model (d=1, drift
-2 xi(0) + 0.1 xi(-0.5), unit noise, dt = 1/128) with the fixed master seed
from conftest; the heavy shared artifacts (stationary sample, centering run,
rate fit, variance constants) come from the session fixtures.
"""

import math
import time

import numpy as np

from conftest import DT, MASTER_SEED, R0
from oracles import brute_force_assignment
from segflow import (
    CenteredObservable,
    CorrectorConfig,
    DiscreteCorrectorConfig,
    EmpiricalMeasure,
    ExpDecayKernel,
    IidChain,
    RateFit,
    RngStream,
    check_dissipativity,
    check_ellipticity,
    clt_test,
    constant_segment,
    derive_seed,
    ergodicity_curve,
    gaussian_pair_sampler,
    gaussian_segment_sampler,
    lil_run,
    qv_lln_check,
    quadratic_variation,
    rescaled_path_nodes,
    slln_variance_decay,
    vph_residual,
    wasserstein,
)
from segflow.cli import run_experiment
from segflow.config import parse_config_dict
from segflow.metric import rho_matrix
from segflow.registry import build_observable


def verdict(criterion: int, ok: bool, detail: str):
    line = f"[acceptance {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_assumption_certificates(self, ref_model):
        t0 = time.perf_counter()
        rng = RngStream(MASTER_SEED).child(10)
        dis = check_dissipativity(
            ref_model, gaussian_pair_sampler(ref_model, DT, scale=3.0), 400, rng.child(0)
        )
        ell = check_ellipticity(
            ref_model, gaussian_segment_sampler(ref_model, DT, scale=3.0), 400, rng.child(1)
        )
        ok = (
            dis.passed
            and dis.side_margin >= 3.1
            and ell.passed
            and ell.declared_sigma_bound == 1.0
            and ell.declared_sigma_inv_bound == 1.0
        )
        verdict(
            1,
            ok,
            f"dissipativity max_g={dis.max_g:.2e}, side margin={dis.side_margin:.3f} >= 3.1, "
            f"ellipticity bounds ({ell.max_sigma_norm:.3f}, {ell.max_sigma_inv_norm:.3f}) "
            f"within (1, 1)  [{time.perf_counter() - t0:.1f}s]",
        )

    def test_02_ergodicity_rate(self, ref_model, xi_five, stationary_sample, mp):
        t0 = time.perf_counter()
        fit = ergodicity_curve(
            ref_model,
            xi_five,
            stationary_sample,
            [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0],
            mp,
            4096,
            RngStream(derive_seed(MASTER_SEED, 20)),
        )
        decay = fit.values[0] / fit.values[-1] if fit.values.size >= 2 else 0.0
        ok = (not fit.flagged) and fit.beta_hat > 0 and fit.r_squared >= 0.8 and decay >= 10.0
        verdict(
            2,
            ok,
            f"beta_hat={fit.beta_hat:.3f}+-{fit.se_beta:.3f} > 0, r2={fit.r_squared:.4f} >= 0.8, "
            f"decay {decay:.0f}x >= 10x over t in [0.5, 6]  [{time.perf_counter() - t0:.1f}s]",
        )

    def test_03_slln_variance_decay(self, ref_model, f_centered):
        t0 = time.perf_counter()
        xi = constant_segment(1.0, R0, DT)
        rep = slln_variance_decay(
            ref_model,
            xi,
            f_centered,
            [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
            1000,
            RngStream(MASTER_SEED).child(30),
        )
        ok = -1.25 <= rep.exponent <= -0.75
        verdict(
            3,
            ok,
            f"log-log slope {rep.exponent:.3f} (ci {rep.exponent_ci[0]:.3f}..{rep.exponent_ci[1]:.3f}) "
            f"in [-1.25, -0.75]  [{time.perf_counter() - t0:.1f}s]",
        )

    def test_04_variance_identity(self, variance_report):
        v = variance_report
        ok = v.discrepancy_in_se <= 3.0 and v.n_atoms == 256
        verdict(
            4,
            ok,
            f"|D_f^2 - 2 mean(f R_f)| = |{v.d_sq:.4f} - {v.cross_check:.4f}| "
            f"= {abs(v.discrepancy):.4f} <= 3 SE ({v.discrepancy_in_se:.2f} SE, "
            f"{v.n_atoms} atoms, 64 inner replicas)",
        )

    def test_05_semigroup_identity(self, ref_model, f_centered, corrector_cfg):
        t0 = time.perf_counter()
        # synthetic exact-kernel route: the noise-free decay model realizes
        # P_t f = e^-t f for the current-value observable
        from segflow.registry import build_model

        decay = build_model("deterministic_decay", {"rate": 1.0})
        unit_fit = RateFit(
            c_hat=1.0, beta_hat=1.0, r_squared=1.0,
            times=np.array([0.0, 1.0]), values=np.array([1.0, math.exp(-1.0)]),
        )
        syn_cfg = CorrectorConfig(rate_fit=unit_fit, t_max=14.0, replicas=8, auto_truncate=False)
        f_plain = CenteredObservable(build_observable("eval0"), 0.0, 0.0, 1)
        syn = vph_residual(
            decay, f_plain, constant_segment(1.0, R0, DT), syn_cfg,
            RngStream(MASTER_SEED).child(50), replicas=8, s_nodes=9, sg=ExpDecayKernel(1.0),
        )
        syn_ok = abs(syn.residual) <= 3.0 * max(syn.combined_se, 2e-3)

        ref = vph_residual(
            ref_model, f_centered, constant_segment(0.0, R0, DT), corrector_cfg,
            RngStream(MASTER_SEED).child(51), replicas=48, s_nodes=9,
        )
        ref_ok = abs(ref.residual) <= 3.0 * ref.combined_se
        verdict(
            5,
            syn_ok and ref_ok,
            f"synthetic kernel residual {syn.residual:.2e} (err {syn.combined_se:.2e}), "
            f"reference residual {ref.residual:.4f} <= 3 x {ref.combined_se:.4f} "
            f"[{time.perf_counter() - t0:.1f}s]",
        )

    def test_06_clt(self, ref_model, f_centered, variance_report, xi_zero):
        t0 = time.perf_counter()
        rep = clt_test(
            ref_model, f_centered, xi_zero, [16.0, 64.0, 256.0], 2000,
            variance_report.d_f, RngStream(MASTER_SEED).child(60),
        )
        s16, s256 = rep.statistics[0], rep.statistics[-1]
        mono = s256 <= s16 + 2.0 * math.hypot(rep.ses[0], rep.ses[-1])
        ok = s256 <= 0.05 and mono
        verdict(
            6,
            ok,
            f"KS(t=256)={s256:.4f} <= 0.05; KS series {np.round(rep.statistics, 4).tolist()} "
            f"with monotone-decay check ({'ok' if mono else 'violated'}) "
            f"[{time.perf_counter() - t0:.1f}s]",
        )

    def test_07_quadratic_variation_lln(
        self, ref_model, f_centered, variance_report, variance_report_discrete,
        corrector_cfg, discrete_cfg, xi_zero,
    ):
        t0 = time.perf_counter()
        n = 256
        d_sq = variance_report.d_sq
        d_hat_sq = variance_report_discrete.d_sq

        qv = quadratic_variation(
            ref_model, f_centered, xi_zero, n, corrector_cfg,
            RngStream(MASTER_SEED).child(70), outer_replicas=16,
        )
        # the continuous-time quadratic variation averages the continuous
        # variance functional, so its long-run level is D_f^2
        qv_se = math.hypot(qv.qv_over_k_se, variance_report.d_sq_se)
        qv_ok = abs(qv.qv_over_k - d_sq) <= 3.0 * qv_se

        rep = qv_lln_check(
            ref_model, f_centered, xi_zero, n, discrete_cfg,
            RngStream(MASTER_SEED).child(71),
            d_hat_sq=d_hat_sq, d_hat_sq_se=variance_report_discrete.d_sq_se,
            replicas=128,
        )

        # synthetic i.i.d. chain with known variance
        v = 0.49
        shape = xi_zero.values.shape

        def sampler(gen, k):
            vals = math.sqrt(v) * gen.standard_normal((k, 1, 1))
            return np.broadcast_to(vals, (k,) + shape).copy()

        iid_cfg = DiscreteCorrectorConfig(
            rate_fit=RateFit(1.0, 1.0, 1.0, np.array([]), np.array([])),
            k_max=4, replicas=8, auto_truncate=False,
        )
        iid = qv_lln_check(
            IidChain(sampler), CenteredObservable(build_observable("eval0"), 0.0, 0.0, 1),
            xi_zero, n, iid_cfg, RngStream(MASTER_SEED).child(72),
            d_hat_sq=v, replicas=128,
        )
        ok = qv_ok and rep.w0_passed and rep.w4_passed and iid.w0_passed and iid.w4_passed
        verdict(
            7,
            ok,
            f"<M>_n/n={qv.qv_over_k:.4f} vs D_f^2={d_sq:.4f} ({abs(qv.qv_over_k - d_sq) / qv_se:.2f} SE); "
            f"mean Z^2={rep.w4_ratio:.4f}, S_n^2/n={rep.w0_ratio:.4f} vs Dhat^2={d_hat_sq:.4f} "
            f"(3 SE gates); i.i.d. oracle v={v}: w0={iid.w0_ratio:.4f}, w4={iid.w4_ratio:.4f} "
            f"[{time.perf_counter() - t0:.1f}s]",
        )

    def test_08_lil_band(self, ref_model, f_centered, variance_report_discrete):
        t0 = time.perf_counter()
        d_hat = variance_report_discrete.d_f
        assert d_hat > 0
        n_max = 100000
        checkpoints = [16, 64, 256, 1024, 4096, 16384, 65536, 100000]
        rep = lil_run(
            ref_model, f_centered, constant_segment(0.0, R0, DT), n_max, d_hat,
            checkpoints, RngStream(MASTER_SEED).child(6),
        )
        lo, hi = 0.6 * d_hat, 1.4 * d_hat
        band_ok = lo <= rep.running_max[-1] <= hi and -hi <= rep.running_min[-1] <= -lo

        endpoints_again = np.array(
            [rescaled_path_nodes(rep.f_cumsum, int(nc), d_hat)[int(nc)] for nc in rep.n_grid]
        )
        identity_ok = np.array_equal(endpoints_again, rep.endpoint_values)
        sup_ok = rep.sup_norm_of_lambda[-1] <= 1.5
        ok = band_ok and identity_ok and sup_ok
        verdict(
            8,
            ok,
            f"running max {rep.running_max[-1]:.4f} in [{lo:.4f}, {hi:.4f}], "
            f"running min {rep.running_min[-1]:.4f} in mirrored band; endpoint identity "
            f"bit-exact={identity_ok}; sup|rescaled path|={rep.sup_norm_of_lambda[-1]:.4f} <= 1.5 "
            f"[{time.perf_counter() - t0:.1f}s]",
        )

    def test_09_transport_oracle(self, mp):
        t0 = time.perf_counter()
        gen = RngStream(MASTER_SEED).child(90).generator()
        exact = 0
        for _ in range(200):
            a_vals = 1.5 * gen.standard_normal((3, 3, 1))
            b_vals = 1.5 * gen.standard_normal((3, 3, 1))
            a = EmpiricalMeasure(a_vals, R0, R0 / 2)
            b = EmpiricalMeasure(b_vals, R0, R0 / 2)
            cost = rho_matrix(a.values, b.values, mp)
            oracle_val, perm = brute_force_assignment(cost)
            # same minimizing permutation implies bit-identical sorted sums
            ours = wasserstein(a, b, mp)
            oracle_sorted = float(np.sort(cost[np.arange(3), list(perm)]).sum() / 3)
            exact += ours == oracle_sorted
        ok = exact == 200
        verdict(
            9, ok, f"{exact}/200 random n=3 instances match the exhaustive "
            f"6-permutation minimum exactly [{time.perf_counter() - t0:.1f}s]",
        )

    def test_10_full_suite_determinism(self):
        t0 = time.perf_counter()
        cfg = parse_config_dict(
            {
                "kind": "full-suite",
                "seed": MASTER_SEED,
                "model": {"name": "linear_delay_ou"},
                "numerics": {"scale": "smoke"},
            }
        )
        r1 = run_experiment(cfg, threads=1)
        r2 = run_experiment(cfg, threads=4)
        ok = r1.digest == r2.digest and not r1.failures and not r2.failures
        # the roadmap's reference digest: smoke full-suite, linear_delay_ou, this seed
        ok = ok and r1.digest.startswith("95333cdbd027")
        verdict(
            10,
            ok,
            f"full-suite digests identical across thread counts "
            f"({r1.digest[:16]}...), no failures [{time.perf_counter() - t0:.1f}s]",
        )
