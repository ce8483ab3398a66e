"""Acceptance gate: eleven binding criteria, one test each.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Every criterion asserts at its stated tolerance; none is
advisory.
"""

import json
import time

import numpy as np

import partialcrit as pc
from partialcrit.cli import main


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


def test_criterion_01_schedule_invariant(sincos_1d):
    start = time.perf_counter()
    ok = True
    worst = -np.inf
    for seed in range(10):
        cfg = pc.SchemeConfig(random_init=True, seed=seed)
        pair, trace = pc.run_scheme(sincos_1d, cfg)
        ok &= pair.converged
        for row in trace.rows:
            t_k = 1.0 / row.k
            worst = max(worst, row.r1 - t_k, row.r2 - t_k)
            ok &= (row.r1 <= t_k) and (row.r2 <= t_k)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(1, "stage residuals stay within the 1/k schedule over 10 seeded "
               "runs", bool(ok), f"worst margin {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_oracle_agreement(bundled, solved):
    start = time.perf_counter()
    ok = True
    details = []
    bound = 10.0 * (1e-8 + 1e-8)
    for name in ("scalar_linear", "sincos_1d", "sincos_2d", "stokes_17",
                 "cross_coupled_1d", "stokes_cross_17"):
        system = bundled[name]
        pair, _ = solved[name]
        orc = pc.newton_full(system, tol=1e-8)
        du = pc.norm_a(pair.u_star - orc.u_star, system.space)
        dv = pc.norm_a(pair.v_star - orc.v_star, system.space)
        diff = float(np.hypot(du, dv))
        ok &= orc.converged and diff <= bound
        details.append(f"{name} {diff:.1e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(2, "the stacked Newton oracle lands on the scheme's pair",
            bool(ok), "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_03_closed_form(scalar_linear):
    pair, _ = pc.run_scheme(scalar_linear)
    du = abs(pair.u_star.coeffs[0] - 1.0 / 2.02)
    dv = abs(pair.v_star.coeffs[0] - (-1.0 / 20.2))
    ok = pair.converged and du <= 1e-8 and dv <= 1e-8
    _report(3, "one-unknown system reproduces the closed form "
               "(1/2.02, -1/20.2)", bool(ok), f"du {du:.1e}, dv {dv:.1e}")


def test_criterion_04_gradient_consistency(bundled):
    ok = True
    worst, worst_name = 0.0, ""
    for name, system in bundled.items():
        rng = np.random.default_rng(0)
        space = system.space
        for _ in range(10):
            u = rng.standard_normal(space.dim)
            v = rng.standard_normal(space.dim)
            err = pc.fd_gradient_check(system, u, v, n_dirs=2)
            if err > worst:
                worst, worst_name = err, name
            ok &= err <= 1e-5
    _report(4, "energy gradients match central differences at 10 random "
               "states per system", bool(ok),
            f"worst {worst:.1e} ({worst_name})")


def test_criterion_05_certificate_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    ok = True
    n_checked = 0
    for _ in range(1000):
        m = rng.uniform(0.0, 1.5, (2, 2))
        rho = float(np.max(np.abs(np.linalg.eigvals(m))))
        if abs(rho - 1.0) < 1e-3:
            continue
        cert = pc.is_convergent_to_zero(m)
        ok &= cert.rho_ok == (rho < 1.0)
        n_checked += 1
    ok &= n_checked > 900

    # dominated synthetic trajectories: the verifier passes, tails decay
    n_traj, steps = 100, 4096
    mats = np.empty((n_traj, 2, 2))
    cs = np.empty(n_traj)
    x0 = np.empty((n_traj, 2))
    for t in range(n_traj):
        m = rng.uniform(0.0, 1.0, (2, 2))
        rho = float(np.max(np.abs(np.linalg.eigvals(m))))
        mats[t] = (0.2 + 0.5 * rng.uniform()) * m / max(rho, 1e-9)
        cs[t] = rng.uniform(0.1, 2.0)
        x0[t] = rng.uniform(0.5, 2.0, 2)
    xs = np.zeros((steps, n_traj, 2))
    ys = np.zeros((steps, n_traj, 2))
    xs[0] = x0
    for k in range(1, steps):
        ys[k] = (cs / k**2)[:, None]
        xs[k] = np.einsum("tij,tj->ti", mats, xs[k - 1]) + ys[k]
    worst_tail = 0.0
    for t in range(n_traj):
        rep = pc.verify_dominance(xs[:, t, :], ys[:, t, :], mats[t],
                                  slack=1e-13, tail_threshold=1e-6)
        ok &= rep.dominance_ok and bool(rep.tail_ok)
        worst_tail = max(worst_tail, rep.tail_sup)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(5, "radius and exact minors agree; dominated "
               "trajectories decay", bool(ok),
            f"{n_checked} matrices, {n_traj} trajectories, worst tail "
            f"{worst_tail:.1e}, {elapsed:.1f}s")


def test_criterion_06_growth_contraction(bundled, solved):
    ok = True
    # parameter grid: mu < 1 exactly when the coefficient sum is below 1/2
    grid = np.linspace(0.01, 0.49, 50)
    n_pairs = 0
    for au in grid:
        for al in grid:
            if abs((au + al) - 0.5) < 1e-9:
                continue  # exact boundary pairs are ill-posed in floats
            mu = pc.mu_of(float(au), float(al))
            ok &= (mu < 1.0) == (au + al < 0.5)
            n_pairs += 1
    ok &= n_pairs > 2400

    # trace-level norm recursion with a fitted offset, capped by the
    # offset the declared constants imply
    details = []
    n_systems = 0
    for name, system in bundled.items():
        if system.growth is None:
            continue
        n_systems += 1
        g = system.growth
        mu = pc.mu_of(g.alpha_upper, g.alpha_lower)
        ok &= mu < 1.0
        s1 = g.alpha_lower / (0.5 - g.alpha_upper)
        off1 = g.c_growth / (0.5 - g.alpha_upper)
        off2 = g.c_growth / (0.5 - g.alpha_lower)
        cap = s1 * off2 + off1
        _, trace = solved[name]
        prev_u2 = 0.0  # the run starts from u = 0
        c3 = 0.0
        for row in trace.rows:
            u2 = row.norm_u**2
            c3 = max(c3, u2 - mu * prev_u2)
            prev_u2 = u2
        ok &= 0.0 <= c3 <= cap + 1e-12
        details.append(f"{name} C3 {c3:.1e} (cap {cap:.1e})")
    ok &= n_systems >= 3
    _report(6, "mu classifies the parameter grid and the fitted norm "
               "recursion offset stays under the declared cap", bool(ok),
            f"{n_pairs} grid pairs; " + "; ".join(details))


def test_criterion_07_contraction_certificate(bundled, solved):
    ok = True
    n_comparisons = 0
    for name, system in bundled.items():
        _, trace = solved[name]
        for p in (1, 3):
            rep = pc.contraction_certificate(trace, system.monotony, p=p)
            ok &= rep.passed
            n_comparisons += rep.n_checks
    ok &= n_comparisons > 0
    _report(7, "iterate differences obey the delayed dominance recursion "
               "with 2/k slack", bool(ok), f"{n_comparisons} comparisons")


def test_criterion_08_equilibrium(bundled, solved):
    ok = True
    for name, system in bundled.items():
        pair, _ = solved[name]
        rep = pc.nash_check(system, pair)
        ok &= rep.ok
    for name in ("scalar_linear", "scalar_sincos", "scalar_stiff"):
        scan = pc.brute_nash(bundled[name], solved[name][0],
                             grid_radius=0.5, grid_n=401)
        ok &= scan.ok
    _report(8, "solutions are certified epsilon-Nash points and pass "
               "exhaustive scalar scans", bool(ok))


def test_criterion_09_ring_violations(sincos_1d):
    # the system itself passes the full hypothesis battery ...
    report = pc.full_report(sincos_1d, sincos_1d.pointwise.growth,
                            pc.SamplerSpec())
    ok = bool(report.ready)
    # ... yet the strict ring inequality fails on part of every ring
    fractions = []
    for tau in (0.5, 1.0, 2.0):
        rep = pc.check_mountain_pass_ring(sincos_1d, tau, pc.SamplerSpec())
        ok &= 0 < rep.n_violated < rep.n_samples
        fractions.append(f"tau={tau}: {rep.fraction_violated:.2f}")
    _report(9, "a system passing every hypothesis still violates the "
               "strict ring inequality", bool(ok), "; ".join(fractions))


def test_criterion_10_stokes_structure(stokes_17, stokes_spec, solved):
    # every stream function, random or solved, yields a divergence-free field
    rng = np.random.default_rng(11)
    div = 0.0
    space = stokes_17.space
    for _ in range(5):
        z = rng.standard_normal(space.dim)
        z /= pc.norm_a(space.wrap(z), space)  # unit sphere of the space
        vx, vy = pc.reconstruct_velocity(space.wrap(z), stokes_spec)
        d = pc.discrete_divergence(vx, vy, stokes_spec)
        div = max(div, float(np.max(np.abs(d))))
    # solved stream functions, the cross-coupled one on the same grid
    for name in ("stokes_17", "stokes_cross_17"):
        pair, _ = solved[name]
        for psi in (pair.u_star, pair.v_star):
            vx, vy = pc.reconstruct_velocity(psi, stokes_spec)
            div = max(div, float(np.max(np.abs(
                pc.discrete_divergence(vx, vy, stokes_spec)))))
    ok = div <= 1e-13

    msys, (u_star, v_star) = pc.build_stokes_manufactured(stokes_spec)
    mpair, _ = pc.run_scheme(msys)
    err = max(pc.norm_a(mpair.u_star - u_star, msys.space),
              pc.norm_a(mpair.v_star - v_star, msys.space))
    ok &= mpair.converged and err <= 1e-6

    dense = stokes_17.space.operator.matrix.toarray()
    ok &= bool(np.allclose(dense, dense.T, atol=1e-12))
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = rng.standard_normal(dense.shape[0])
        ok &= float(x @ dense @ x) > 0.0
    bound = 1.0 / np.sqrt(2.0 * np.pi**2 + stokes_spec.mu_coeff)
    ok &= np.sqrt(stokes_17.embedding_sq) <= bound
    _report(10, "stream systems: SPD operator, divergence-free velocity, "
                "manufactured pair recovered", bool(ok),
            f"div {div:.1e}, err {err:.1e}")


def test_criterion_11_cli_reproducibility(tmp_path):
    config = {
        "problem": {
            "kind": "dirichlet", "dims": 1, "n_per_dim": 31,
            "lengths": [1.0], "potential_c": 0.0,
            "nonlinearity": {"kind": "sincos", "epsilon": 0.1},
        },
        "scheme": {"max_outer": 200, "final_tol": 1e-8, "seed": 0},
        "check": {"ring_taus": [0.5, 1.0]},
        "oracle": {"tol": 1e-8},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    ok = main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    ok &= main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("trace.csv", "solution.json", "report.json"):
        ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()

    ok &= main(["check", "--config", str(cfg),
                "--out", str(tmp_path / "c")]) == 0
    ok &= main(["compare", "--config", str(cfg),
                "--out", str(tmp_path / "d")]) == 0

    mcfg = tmp_path / "matrix.json"
    mcfg.write_text(json.dumps(
        {"problem": {"kind": "matrix", "entries": [[0.3, 0.2], [0.1, 0.4]]}}))
    ok &= main(["lemma", "--config", str(mcfg),
                "--out", str(tmp_path / "e")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    ok &= main(["solve", "--config", str(bad),
                "--out", str(tmp_path / "f")]) == 2

    refused = dict(config)
    refused["problem"] = {
        "kind": "scalar", "a_value": 2.0,
        "nonlinearity": {"kind": "quadratic", "b": 3.0},
    }
    rcfg = tmp_path / "refused.json"
    rcfg.write_text(json.dumps(refused))
    ok &= main(["solve", "--config", str(rcfg),
                "--out", str(tmp_path / "g")]) == 1

    exhausted = dict(config)
    exhausted["scheme"] = {"max_outer": 1, "final_tol": 1e-14}
    exhausted["problem"] = {
        "kind": "scalar", "a_value": 2.0,
        "nonlinearity": {"kind": "quadratic", "b": 0.2, "g": 1.0},
    }
    xcfg = tmp_path / "exhausted.json"
    xcfg.write_text(json.dumps(exhausted))
    ok &= main(["solve", "--config", str(xcfg),
                "--out", str(tmp_path / "h")]) == 3
    _report(11, "command line output is byte-reproducible and exit codes "
                "are faithful", bool(ok))
