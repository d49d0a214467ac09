"""Numbered acceptance checks, one test per criterion.

Run with -v to get a per-criterion pass/fail checklist.  Every tolerance is
pinned in the assertion itself, and each test prints one summary line with
the measured quantities so a failing run records what was actually seen.

Criterion 8 checks that the frozen-time spectrum of the narrow Gaussian
kernel (sigma = 0.05) converges to the spectrum of the continuous integral
operator on [0, 1] that it discretizes: the worst relative deviation of
sigma_k/sigma_1 over k = 1..20 from a Gauss-Legendre Nystrom oracle is at
most 3% at n_x = 64 and shrinks at second order in dx.  It used to demand
sigma_20/sigma_1 <= 1e-6 at n_x = 64, which the continuous operator itself
does not have: its sigma_20/sigma_1 is 1.3718e-2 (the same to 7 digits at
100 and 200 Gauss nodes, and near the Fourier estimate
exp(-pi^2 sigma^2 k^2 / 2)), its first ratio <= 1e-6 is at k = 37, and the
midpoint-rule ratio converges to it (1.284e-2, 1.351e-2, 1.367e-2,
1.371e-2 at n_x = 32, 64, 128, 256).
"""

import math
import os
import textwrap

import numpy as np
import pytest

from dynreg import (
    OBSERVE_THEN_ACCUMULATE,
    POINTWISE,
    BochnerFunction,
    DynamicForward,
    KaczmarzConfig,
    LinearSubproblem,
    NoiseSpec,
    ParameterRule,
    SpatialGrid,
    TimeGrid,
    add_noise,
    apply_adjoint,
    apply_forward,
    assemble_dense,
    bochner_norm,
    holder_pairing,
    integrability_tail,
    landweber_kaczmarz,
    make_causal_kernel,
    make_dct_analogue,
    make_gaussian_smoothing,
    make_identity_problem,
    make_mpi_analogue,
    make_nonuniform_example,
    make_scaling_family,
    temporal_spectrum,
    tikhonov_temporal,
    tikhonov_uniform,
    time_subproblems,
)
from dynreg.cli import main
from nystrom import gaussian_nystrom_spectrum


def _say(number: int, label: str, detail: str) -> None:
    print(f"criterion {number:02d} ({label}): PASS  {detail}")


def test_criterion_01_adjoint_pairing():
    makers = {
        "dct": make_dct_analogue,
        "mpi": make_mpi_analogue,
        "nonuniform": make_nonuniform_example,
    }
    worst = 0.0
    for index, (kind, make) in enumerate(sorted(makers.items())):
        forward = make(32, 64).forward
        n_in = forward.static.n_in
        rng = np.random.default_rng(17 + index)
        for _ in range(100):
            theta = forward.source_template(rng.standard_normal((32, n_in)))
            image = apply_forward(forward, theta)
            y = image.with_values(rng.standard_normal(image.values.shape))
            lhs = holder_pairing(image, y)[0]
            rhs = holder_pairing(theta, apply_adjoint(forward, y))[0]
            scale = bochner_norm(theta) * bochner_norm(y)
            mismatch = abs(lhs - rhs) / scale
            worst = max(worst, mismatch)
            assert abs(lhs - rhs) <= 1e-10 * scale, (
                f"{kind}: pairing mismatch {abs(lhs - rhs):.3e} > 1e-10 * {scale:.3e}"
            )
    _say(1, "adjoint pairing", f"worst relative mismatch {worst:.3e} over 300 pairs")


def test_criterion_02_causality():
    grid = TimeGrid(1.0, 16)
    mpi = make_mpi_analogue(16, 8).forward
    fam = make_gaussian_smoothing(SpatialGrid(0.0, 1.0, 8), 0.3)
    kernel = make_causal_kernel(grid, np.exp(-grid.nodes))
    ota = DynamicForward(OBSERVE_THEN_ACCUMULATE, fam, grid, kernel)
    for forward in (mpi, ota):
        rng = np.random.default_rng(2)
        base = forward.source_template(rng.standard_normal((16, forward.static.n_in)))
        out_base = apply_forward(forward, base)
        for i in range(16):
            values = base.values.copy()
            values[i + 1 :] += rng.standard_normal(values[i + 1 :].shape)
            out_pert = apply_forward(forward, base.with_values(values))
            assert np.array_equal(out_base.values[: i + 1], out_pert.values[: i + 1]), (
                f"{forward.kind}: output before cut {i} changed"
            )
    _say(2, "causality", "prefixes bit-identical for both accumulate kinds, all 16 cuts")


def test_criterion_03_tikhonov_optimality():
    alpha = 1e-3
    worst = 0.0
    cases = []
    for make in (make_identity_problem, make_dct_analogue, make_mpi_analogue,
                 make_nonuniform_example):
        problem = make(8, 10)
        solvers = [tikhonov_uniform]
        if problem.forward.kind == POINTWISE:
            solvers.append(tikhonov_temporal)  # the tracking solver is pointwise-only
        cases.extend((problem, solver) for solver in solvers)
    for problem, solver in cases:
        forward = problem.forward
        noisy = add_noise(problem.data_clean, NoiseSpec(1e-2, 5))
        theta = solver(forward, noisy, alpha).reconstruction
        gradient = apply_adjoint(forward, apply_forward(forward, theta) - noisy) + theta * alpha
        scale = bochner_norm(apply_adjoint(forward, noisy))
        ratio = bochner_norm(gradient) / scale
        worst = max(worst, ratio)
        assert ratio <= 1e-8, (
            f"{problem.label}/{solver.__name__}: normal-equation residual {ratio:.3e}"
        )
    _say(3, "tikhonov optimality", f"worst relative residual {worst:.3e} over {len(cases)} runs")


def test_criterion_04_decoupling_oracle():
    problem = make_dct_analogue(16, 16)
    forward = problem.forward
    noisy = add_noise(problem.data_clean, NoiseSpec(1e-2, 1))
    alpha = 1e-3
    uniform = tikhonov_uniform(forward, noisy, alpha).reconstruction
    temporal = tikhonov_temporal(forward, noisy, alpha).reconstruction
    pair_gap = bochner_norm(uniform - temporal) / bochner_norm(uniform)
    assert pair_gap <= 1e-8, f"solver disagreement {pair_gap:.3e}"
    m = assemble_dense(forward)
    c = math.sqrt(forward.static.out_weight / forward.static.in_weight)
    dense = np.linalg.solve(
        m.T @ m + alpha * np.eye(16 * 16), m.T @ (c * noisy.values.reshape(-1))
    ).reshape(16, 16)
    scale = np.linalg.norm(dense)
    for name, values in (("uniform", uniform.values), ("temporal", temporal.values)):
        gap = np.linalg.norm(values - dense) / scale
        assert gap <= 1e-7, f"{name} vs dense normal equations: {gap:.3e}"
    _say(4, "decoupling oracle", f"solver gap {pair_gap:.3e}, dense gap <= 1e-7")


def test_criterion_05_convergence_sweep():
    problem = make_dct_analogue(32, 32)
    errors = []
    for k, delta in enumerate([1e-1, 1e-2, 1e-3, 1e-4]):
        noisy = add_noise(problem.data_clean, NoiseSpec(delta, 100 + k))
        report = tikhonov_uniform(
            problem.forward, noisy, ParameterRule(1.0, 1.0), delta, truth=problem.truth
        )
        errors.append(report.error)
    assert all(b < a for a, b in zip(errors, errors[1:])), f"not strictly decreasing: {errors}"
    assert errors[-1] <= 0.5 * errors[0], f"error({1e-4:g}) = {errors[-1]:.4f}"
    _say(5, "convergence sweep", f"errors {[f'{e:.4f}' for e in errors]}")


def test_criterion_06_discrepancy_termination():
    problem = make_mpi_analogue(32, 32)
    forward = problem.forward
    dt = forward.time_grid.dt
    w = forward.static.out_weight
    delta = 1e-2
    noisy = add_noise(problem.data_clean, NoiseSpec(delta, 3))
    e = noisy.values - problem.data_clean.values
    blocks = np.array_split(np.arange(32), 4)
    split = [math.sqrt(dt * w * float(e[b].ravel() @ e[b].ravel())) for b in blocks]
    subs = time_subproblems(forward, noisy, delta, noise_split=split, sections=4)
    x_star = problem.truth.values[0]
    report = landweber_kaczmarz(
        subs, KaczmarzConfig(tau=2.0, max_sweeps=500), np.zeros(32), truth=x_star
    )
    assert report.stop_reason == "discrepancy"
    assert report.iterations < 500
    final_cycle = report.trace[-len(subs) :]
    for _, i, residual, _, _ in final_cycle:
        assert residual <= 2.0 * subs[i].noise_level, (
            f"sub-problem {i}: final residual {residual:.3e} > threshold"
        )
    initial = np.linalg.norm(np.zeros(32) - x_star) / np.linalg.norm(x_star)
    assert report.error <= initial
    _say(
        6,
        "discrepancy termination",
        f"stopped after {report.iterations} sweeps, error {report.error:.3f} <= {initial:.0f}",
    )


def test_criterion_07_least_squares_oracle():
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((8, 6)) for _ in range(4)]
    x_true = rng.standard_normal(6)
    ys = [m @ x_true for m in mats]

    def sub(m, y):
        return LinearSubproblem(lambda v: m @ v, lambda r: m.T @ r, y, 1e-8)

    subs = [sub(m, y) for m, y in zip(mats, ys)]
    report = landweber_kaczmarz(subs, KaczmarzConfig(tau=1.0, max_sweeps=500), np.zeros(6))
    assert report.stop_reason == "discrepancy"
    dense = np.linalg.pinv(np.vstack(mats)) @ np.concatenate(ys)
    gap = np.linalg.norm(report.reconstruction - dense) / np.linalg.norm(dense)
    assert gap <= 1e-6, f"pseudoinverse gap {gap:.3e}"
    _say(7, "least-squares oracle", f"pinv gap {gap:.3e} after {report.iterations} sweeps")


def test_criterion_08_compactness_witness():
    narrow = make_dct_analogue(2, 64, sigma=0.05).forward
    sigma = temporal_spectrum(narrow, 0).singular_values
    oracle = np.linalg.svd(assemble_dense(narrow, time_index=0), compute_uv=False)
    assert np.max(np.abs(sigma - oracle)) <= 1e-8 * oracle[0], "spectrum oracle mismatch"
    conditions = []
    for n_x in (32, 48):  # finite on both: n_x = 64 is flagged rank deficient
        forward = make_dct_analogue(2, n_x, sigma=0.05).forward
        conditions.append(temporal_spectrum(forward, 0).condition)
    assert all(math.isfinite(c) for c in conditions), f"condition not finite: {conditions}"
    assert conditions[1] > conditions[0], f"condition did not grow: {conditions}"
    coarse = gaussian_nystrom_spectrum(100, 0.05)[:20]
    continuous = gaussian_nystrom_spectrum(200, 0.05)[:20]
    assert np.max(np.abs(coarse - continuous) / continuous) <= 1e-10, "Nystrom oracle unconverged"
    target = continuous / continuous[0]
    deviations = []
    for n_x in (32, 64, 128):
        forward = make_dct_analogue(2, n_x, sigma=0.05).forward
        s = temporal_spectrum(forward, 0).singular_values[:20]
        deviations.append(float(np.max(np.abs(s / s[0] - target) / target)))
    ratio = sigma[19] / sigma[0]
    measured = (
        f"sigma_20/sigma_1 = {ratio:.4e} at n_x=64 vs {target[19]:.4e} continuous; "
        f"worst deviation of sigma_k/sigma_1, k<=20, at n_x=32, 64, 128: "
        f"{', '.join(f'{d:.3e}' for d in deviations)}"
    )
    assert deviations[1] <= 0.03, measured
    assert all(a >= 3.0 * b for a, b in zip(deviations, deviations[1:])), (
        f"not second order under refinement: {measured}"
    )
    _say(
        8,
        "compactness witness",
        f"continuous sigma_20/sigma_1 {target[19]:.4e}; deviation "
        f"{' -> '.join(f'{d:.2e}' for d in deviations)} at n_x = 32, 64, 128",
    )


def test_criterion_09_integrability_witness():
    masses = []
    for n_t in (32, 64):
        grid = TimeGrid(1.0, n_t)
        fam = make_scaling_family(grid, 1, weight=1.0)
        forward = DynamicForward(POINTWISE, fam, grid)
        constant = forward.source_template(np.ones((n_t, 1)))
        mass = integrability_tail(forward, [constant], [4.0], q=1.0)[0, 1]
        oracle = sum(grid.dt / t for t in grid.nodes if t < 0.25)
        assert mass == pytest.approx(oracle, rel=1e-12), (
            f"n_t={n_t}: tail {mass!r} vs oracle {oracle!r}"
        )
        masses.append(mass)
    assert masses[1] > masses[0]
    _say(9, "integrability witness", f"tails {masses[0]:.6f} -> {masses[1]:.6f} under refinement")


def test_criterion_10_bochner_norm_exactness():
    grid = TimeGrid(2.0, 8)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(5)
    weight = 0.3
    for p in (1.0, 2.0, 3.0):
        u = BochnerFunction(grid, np.tile(x, (8, 1)), p=p, space_weight=weight)
        expected = 2.0 ** (1.0 / p) * math.sqrt(math.fsum(weight * x * x))
        assert abs(bochner_norm(u) - expected) <= 1e-14 * expected, f"p={p}"
    for k in range(100):
        pair_rng = np.random.default_rng(500 + k)
        p = 1.0 + 3.0 * pair_rng.random()
        s = 1.0 + 3.0 * pair_rng.random()
        u = BochnerFunction(grid, pair_rng.standard_normal((8, 5)), p=p,
                            space_exponent=s, space_weight=weight)
        v = BochnerFunction(grid, pair_rng.standard_normal((8, 5)), p=p / (p - 1.0),
                            space_exponent=s / (s - 1.0), space_weight=weight)
        pairing, bound = holder_pairing(u, v)
        assert abs(pairing) <= bound * (1.0 + 1e-12), f"pair {k}: {pairing} vs {bound}"
    _say(10, "bochner norm exactness", "T^(1/p) identity and 100 conjugate pairings hold")


def test_criterion_11_static_source_benefit():
    problem = make_nonuniform_example(32, 32)
    forward = problem.forward
    dt = forward.time_grid.dt
    c = math.sqrt(forward.static.out_weight / forward.static.in_weight)
    mats = [assemble_dense(forward, time_index=i) for i in range(32)]
    gram = dt * sum(m.T @ m for m in mats)
    x_star = problem.truth.values[0]
    alpha = 0.03
    margins = []
    for seed in range(10):
        noisy = add_noise(problem.data_clean, NoiseSpec(0.1, seed))
        rhs = dt * sum(m.T @ (c * y) for m, y in zip(mats, noisy.values))
        x_hat = np.linalg.solve(gram + alpha * np.eye(32), rhs)
        static_error = np.linalg.norm(x_hat - x_star) / np.linalg.norm(x_star)
        tracking = tikhonov_temporal(forward, noisy, alpha, truth=problem.truth)
        best_single = min(row[4] for row in tracking.trace)
        assert static_error <= best_single, (
            f"seed {seed}: static {static_error:.4f} > best single-time {best_single:.4f}"
        )
        margins.append(static_error / best_single)
    _say(11, "static-source benefit", f"10/10 seeds, worst margin {max(margins):.3f}")


def test_criterion_12_end_to_end_reproducibility(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text(textwrap.dedent("""\
        [problem]
        kind = dct
        n_t = 8
        n_x = 8

        [solver]
        method = tikhonov_uniform
        rule_scale = 1.0
        rule_exponent = 1.0
        """))
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["sweep", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        tree = {}
        for entry in sorted(os.listdir(out)):
            with open(out / entry, "rb") as f:
                tree[entry] = f.read()
        trees.append(tree)
    assert trees[0] == trees[1]
    assert set(trees[0]) == {"sweep.csv", "sweep.svg"}
    _say(12, "end-to-end reproducibility", "two sweep runs byte-identical")
