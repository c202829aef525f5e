"""Acceptance suite: one test per criterion, printed pass lines, pinned
tolerances and runtime budgets.

Every expected value is produced by an oracle independent of the code
path under test: forward multiplication for restoration, explicit
restore-then-adjust composition for the closed forms, path-traced
population moments for the linear estimators, and the seeded simulator
for sampling behavior.
"""

import math
import time

import numpy as np
import pytest

from effectrestore import (
    BinaryErrorParams,
    ErrorMatrix,
    JointTable,
    LinearSemSpec,
    SingularError,
    adjust_for_confounder,
    binary_spec,
    bootstrap_se,
    c0_from_lambda,
    c0_noiseless,
    c0_two_indicator,
    causal_effect_binary,
    causal_effect_binary_infinitesimal,
    causal_effect_restored,
    cov_from_samples,
    empirical_joint,
    lambda_from_two_indicators,
    naive_effect,
    propensity_profile,
    pushforward,
    restore_binary,
    restore_joint,
    restored_propensity,
    simulate_discrete,
    simulate_linear,
    stratified_effect,
    two_stage_test,
)


def _report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS [{detail}]")


def random_latent_table(rng, cards):
    return JointTable(rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards), "Z")


def well_conditioned_mechanism(rng, n, mix=0.4):
    noise = rng.dirichlet(np.ones(n), size=n).T
    return ErrorMatrix(entries=(1.0 - mix) * np.eye(n) + mix * noise)


def random_valid_binary_instance(rng, margin=0.03):
    while True:
        eps, delta = rng.uniform(0.02, 0.3, size=2)
        err = BinaryErrorParams(eps, delta)
        truth = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        if truth.min() < margin:
            continue
        observed = np.einsum("wz,xyz->xyw", err.matrix(), truth)
        return JointTable(observed, "W"), err


def random_sem_spec(rng, *, c0=None):
    return LinearSemSpec(
        c0=rng.uniform(-2.0, 2.0) if c0 is None else c0,
        c1=rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
        c2=rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
        c3=rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
        var_z=rng.uniform(0.5, 2.0),
        var_ex=rng.uniform(0.2, 2.0),
        var_ey=rng.uniform(0.2, 2.0),
        var_ew=rng.uniform(0.1, 2.0),
        c_v=rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
        var_ev=rng.uniform(0.1, 2.0),
    )


def test_criterion_1_roundtrip_restoration():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        cards = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        truth = random_latent_table(rng, cards)
        mech = well_conditioned_mechanism(rng, cards[2])
        observed = pushforward(truth, mech)
        restored = restore_joint(observed, mech).restored
        worst = max(worst, float(np.abs(restored.cells - truth.cells).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    _report(1, "round-trip restoration", f"1000 pairs, max cell error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_closed_form_equals_composition():
    # the paper's closed form, kept in the tests as the oracle of the
    # restore-then-adjust composition that ``causal_effect_binary`` is
    from test_binary import closed_form_effect

    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        observed, err = random_valid_binary_instance(rng)
        x, y = int(rng.integers(2)), int(rng.integers(2))
        composed = causal_effect_binary(observed, err, x, y)
        assert composed == adjust_for_confounder(restore_binary(observed, err), x)[y]
        direct = closed_form_effect(observed, err, x, y)
        worst = max(worst, abs(direct - composed))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    _report(2, "closed form vs composition", f"1000 instances, max gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_singularity_gate():
    count = 0
    for eps in np.linspace(0.05, 0.95, 10):
        for offset in np.linspace(-9e-7, 9e-7, 10):
            delta = 1.0 - eps - offset
            assert abs(1.0 - eps - delta) < 1e-6
            with pytest.raises(SingularError):
                BinaryErrorParams(eps, delta)
            count += 1
    assert count == 100
    _report(3, "singularity gate", "100 uninformative rate pairs all refused")


def test_criterion_4_bias_removal_at_scale():
    spec = binary_spec(
        0.5, [0.8, 0.2], [[0.2, 0.6], [0.4, 0.9]], BinaryErrorParams(0.2, 0.1)
    )
    mech = spec.error
    truth = spec.effect(1)[1]
    start = time.perf_counter()
    corrected, naive = [], []
    for r in range(200):
        samples, _ = simulate_discrete(spec, 100_000, seed=40_000 + r)
        observed = empirical_joint(samples, (2, 2, 2), "W")
        corrected.append(causal_effect_restored(observed, mech, 1, clip=True)[1])
        naive.append(naive_effect(observed, 1)[1])
    elapsed = time.perf_counter() - start
    corrected = np.asarray(corrected)
    naive = np.asarray(naive)
    se_corr = corrected.std(ddof=1) / math.sqrt(len(corrected))
    se_naive = naive.std(ddof=1) / math.sqrt(len(naive))
    corr_dev = abs(corrected.mean() - truth)
    naive_dev = abs(naive.mean() - truth)
    assert corr_dev < 3.0 * se_corr
    assert naive_dev > 5.0 * se_naive
    assert elapsed < 120.0
    _report(
        4,
        "bias removal",
        f"corrected dev {corr_dev:.2e} < 3SE={3 * se_corr:.2e}; "
        f"naive dev {naive_dev:.2e} > 5SE={5 * se_naive:.2e}; {elapsed:.1f}s",
    )


def test_criterion_5_linear_identification():
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    worst_pop, worst_comp = 0.0, 0.0
    for i in range(50):
        spec = random_sem_spec(rng)
        pop = spec.population_cov()
        lam = spec.c3**2 * spec.var_z
        worst_pop = max(worst_pop, abs(c0_from_lambda(pop, lam) - spec.c0))
        composed = c0_from_lambda(pop, lambda_from_two_indicators(pop))
        worst_comp = max(worst_comp, abs(c0_two_indicator(pop) - composed))
        rows, _ = simulate_linear(spec, 100_000, seed=50_000 + i)
        est = c0_from_lambda(cov_from_samples(rows), lam)
        se = bootstrap_se(
            rows, lambda s: c0_from_lambda(s, lam), n_boot=200, seed=51_000 + i
        )
        assert abs(est - spec.c0) < 3.0 * se
    elapsed = time.perf_counter() - start
    assert worst_pop < 1e-10
    assert worst_comp < 1e-12
    assert elapsed < 120.0
    _report(
        5,
        "linear identification",
        f"50 specs: population err {worst_pop:.2e}, composition gap {worst_comp:.2e}, "
        f"sampled within 3 bootstrap SEs; {elapsed:.1f}s",
    )


def test_criterion_6_noiseless_reduction():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        pop = random_sem_spec(rng).population_cov()
        gap = abs(c0_from_lambda(pop, pop.var_w) - c0_noiseless(pop))
        worst = max(worst, gap)
    assert worst < 1e-12
    _report(6, "noiseless reduction", f"100 instances, max gap {worst:.2e}")


def test_criterion_7_two_stage_level_and_power():
    start = time.perf_counter()
    null_spec = LinearSemSpec(
        c0=0.0, c1=1.0, c2=1.0, c3=1.0, var_z=1.0,
        var_ex=0.5, var_ey=0.5, var_ew=0.3,
    )
    alpha = null_spec.c3**2 * null_spec.var_z
    rejections = 0
    for r in range(500):
        rows, _ = simulate_linear(null_spec, 5000, seed=70_000 + r)
        if two_stage_test(rows, alpha).decision == "reject":
            rejections += 1
    rate = rejections / 500
    assert 0.03 <= rate <= 0.07

    alt_spec = LinearSemSpec(
        c0=0.4, c1=1.0, c2=1.0, c3=1.0, var_z=1.0,
        var_ex=0.5, var_ey=0.5, var_ew=0.3,
    )
    power_hits = 0
    stats, ses = [], []
    for r in range(500):
        rows, _ = simulate_linear(alt_spec, 5000, seed=71_000 + r)
        result = two_stage_test(rows, alpha)
        stats.append(result.statistic)
        ses.append(result.stderr)
        if result.decision == "reject":
            power_hits += 1
    # the chosen effect puts the population statistic beyond 5 sampling SEs
    assert abs(np.mean(stats)) > 5.0 * np.mean(ses)
    power = power_hits / 500
    assert power > 0.9
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    _report(
        7,
        "two-stage level and power",
        f"null rejection rate {rate:.3f} in [0.03, 0.07]; power {power:.3f} > 0.9; {elapsed:.1f}s",
    )


def test_criterion_8_propensity_consistency():
    rng = np.random.default_rng(108)
    worst_prop, worst_strat = 0.0, 0.0
    for _ in range(200):
        n_z = int(rng.integers(2, 7))
        truth = random_latent_table(rng, (2, int(rng.integers(2, 4)), n_z))
        mech = well_conditioned_mechanism(rng, n_z)
        observed = pushforward(truth, mech)
        p_w = observed.cells.sum(axis=(0, 1))
        score_w = observed.cells[1].sum(axis=0) / p_w
        restored = restore_joint(observed, mech).restored
        expected = restored.cells[1].sum(axis=0) / restored.cells.sum(axis=(0, 1))
        got = restored_propensity(score_w, p_w, mech)
        worst_prop = max(worst_prop, float(np.abs(got - expected).max()))

        profile = propensity_profile(restored)
        for x in (0, 1):
            gap = np.abs(
                stratified_effect(restored, profile, x)
                - adjust_for_confounder(restored, x)
            ).max()
            worst_strat = max(worst_strat, float(gap))
    assert worst_prop < 1e-10
    assert worst_strat < 1e-12
    _report(
        8,
        "propensity consistency",
        f"200 instances: score err {worst_prop:.2e}, stratified gap {worst_strat:.2e}",
    )


def test_criterion_9_infinitesimal_convergence_order():
    rng = np.random.default_rng(109)
    observed, _ = random_valid_binary_instance(rng, margin=0.05)
    ratios = []
    for x in (0, 1):
        for y in (0, 1):
            prev = None
            for k in range(5):
                err = BinaryErrorParams(1e-3 / 2**k, 1e-3 / 2**k)
                exact = causal_effect_binary(observed, err, x, y)
                approx = causal_effect_binary_infinitesimal(observed, err, x, y)
                gap = abs(approx - exact)
                if prev is not None:
                    ratios.append(prev / gap)
                prev = gap
    assert all(3.5 <= r <= 4.5 for r in ratios)
    _report(
        9,
        "infinitesimal approximation order",
        f"halving ratios in [{min(ratios):.2f}, {max(ratios):.2f}]",
    )
