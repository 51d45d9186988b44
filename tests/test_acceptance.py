"""End-to-end verification gate.

One test per numbered criterion; each prints a measured summary line before
asserting, so a red criterion still reports what was observed. Criterion 8 is
expected red at the pinned gain pair: see the comment inside it.
"""
import numpy as np
import pytest

from conftest import (
    H_B3_FIRST_ROW,
    RHO_D2,
    SZ,
    ginibre,
    qubit,
    qutrit,
    random_pure,
)
from smestab import (
    ControllerSpec,
    EnsembleConfig,
    ModelSpec,
    SimConfig,
    TargetSpec,
    closed_loop_generator,
    feedback,
    generator_v,
    generator_v_montecarlo_check,
    integrate_bloch,
    kalman_like_rank,
    levelset_table,
    run_batch,
    run_ensemble,
    trace_term,
    v2,
)
from smestab.analysis import control_direction, iterated_commutators
from smestab.bloch import from_density, to_density


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_purity_conservation():
    # eta = 1, open loop, pure starts: the state-vector path must hold purity
    # to well under 1e-5 at every recorded step over 20 trajectories per level
    worst = 0.0
    for n, build in ((2, qubit), (3, qutrit)):
        model, target = build(mu=1.0, eta=1.0)
        rng = np.random.default_rng(1234)
        rho0 = random_pure(rng, n, batch=(20,))
        sim = SimConfig(
            dt=1e-4, t_final=10.0, seed=606, record_stride=100, representation="sse"
        )
        res = run_batch(
            rho0, model, target, ControllerSpec(kind="open_loop"), sim,
            n_trajectories=20,
        )
        worst = max(worst, float(np.max(np.abs(res.purity - 1.0))))
    ok = worst < 1e-5
    assert report(1, ok, f"max |purity - 1| = {worst:.3e} over 2x20 trajectories"), worst


def test_criterion_02_structural_invariants():
    model, target = qubit(mu=1.0, eta=0.8)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    sim = SimConfig(dt=1e-4, t_final=2.0, seed=808, record_stride=20)
    rng = np.random.default_rng(4321)
    rho0 = ginibre(rng, 2)
    res = run_batch(rho0, model, target, ctrl, sim, n_trajectories=8, record_states=True)
    herm = float(np.max(np.abs(res.states - np.conj(np.swapaxes(res.states, -1, -2)))))
    tr = float(np.max(np.abs(np.einsum("...ii", res.states).real - 1.0)))
    clip_fraction = float(res.n_projected.max()) / res.n_steps
    rerun = run_batch(rho0, model, target, ctrl, sim, n_trajectories=8, record_states=True)
    identical = (
        np.array_equal(res.states, rerun.states)
        and np.array_equal(res.controls, rerun.controls)
        and np.array_equal(res.records, rerun.records)
    )
    ok = herm <= 1e-12 and tr <= 1e-9 and clip_fraction <= 1e-3 and identical
    assert report(
        2,
        ok,
        f"hermiticity {herm:.1e}, trace error {tr:.1e}, "
        f"clipped fraction {clip_fraction:.2e}, bit-identical rerun {identical}",
    )


def test_criterion_03_generator_oracle():
    # the arbiter averages Vt over (dW, -dW) pairs of one-step updates, which
    # cancel the O(dW) term exactly, so its deviation over SE depends, to
    # leading order, on the draw seeds 13100-13149 alone: the largest |z|
    # reads 2.45 at every state seed, and state seeds 0-99 all pass. It puts
    # generator_v outside the band on 45 of these 50 states with the drift
    # zeroed, and on all 50 with the noise scaled by 1.05
    rng = np.random.default_rng(131)
    ells = (0.7, 1.0, 2.0)
    worst = -np.inf
    checked = 0
    for n, build in ((2, qubit), (3, qutrit)):
        model, target = build(mu=1.0, eta=0.5)
        for i in range(25):
            rho = ginibre(rng, n)
            u = rng.uniform(-2.0, 2.0)
            ell = ells[i % len(ells)]
            dt = 1e-5
            est, se = generator_v_montecarlo_check(
                rho, model, target, u, ell,
                n_samples=10_000, dt=dt, seed=13100 + checked,
            )
            closed = float(generator_v(rho, model, target, u, ell))
            margin = abs(closed - est) - (3.0 * se + 5.0 * dt)
            worst = max(worst, margin)
            checked += 1
    ok = worst <= 0.0
    assert report(
        3, ok, f"{checked} sampled pairs, worst margin over 3 SE + 5 dt: {worst:+.3e}"
    )


def test_criterion_04_square_completion():
    rng = np.random.default_rng(1618)
    worst_id = 0.0
    worst_sign = -np.inf
    for n, build in ((2, qubit), (3, qutrit)):
        model, target = build(mu=1.0, eta=0.5)
        for k, ell in ((0.6, 0.8), (1.0, 1.0), (2.3, 1.7), (4.0, 3.1)):
            rho = ginibre(rng, n, batch=(250,))
            ctrl = ControllerSpec(kind="square_of_sum", k=k, ell=ell)
            gen = closed_loop_generator(rho, model, target, ctrl)
            root = k * trace_term(rho, model, target, ell) - (
                2.0 * np.sqrt(model.mu * model.eta) / ell
            ) * v2(rho, model)
            worst_id = max(worst_id, float(np.max(np.abs(gen + root**2))))
            worst_sign = max(worst_sign, float(gen.max()))
    ok = worst_id <= 1e-10 and worst_sign <= 1e-12
    assert report(
        4,
        ok,
        f"2000 densities: completion residual {worst_id:.2e}, max generator {worst_sign:+.2e}",
    )


def test_criterion_05_sum_of_squares_identity():
    rng = np.random.default_rng(3141)
    worst = 0.0
    for n, build in ((2, qubit), (3, qutrit)):
        model, target = build(mu=1.0, eta=1.0)
        rho = random_pure(rng, n, batch=(500,))
        k = 1.3
        ctrl = ControllerSpec(kind="sum_of_squares", k=k, ell=1.0)
        gen = closed_loop_generator(rho, model, target, ctrl)
        t = trace_term(rho, model, target, 1.0)
        var = v2(rho, model)
        expected = -k * t**2 - 4.0 * model.mu * model.eta * var**2
        worst = max(worst, float(np.max(np.abs(gen - expected))))
    ok = worst <= 1e-10
    assert report(5, ok, f"1000 pure states: identity residual {worst:.2e}")


def test_criterion_06_born_rule_collapse():
    details = []
    ok = True
    cases = (
        (qubit(mu=1.0, eta=1.0), np.diag([0.3, 0.7]).astype(complex), 0.30),
        (qutrit(mu=1.0, eta=1.0), np.diag([0.5, 0.3, 0.2]).astype(complex), 0.50),
    )
    for (model, target), rho0, p in cases:
        cfg = EnsembleConfig(
            n_trajectories=1000,
            model=model,
            target=target,
            controller=ControllerSpec(kind="open_loop"),
            sim=SimConfig(dt=1e-3, t_final=20.0, seed=909, record_stride=500),
            rho0=rho0,
        )
        stats = run_ensemble(cfg)
        band = 3.0 * np.sqrt(p * (1.0 - p) / stats.n_valid)
        ok = ok and abs(stats.target_frequency - p) <= band
        details.append(
            f"N={model.n}: {stats.target_frequency:.3f} vs {p:.2f} (3 SE = {band:.3f})"
        )
    assert report(6, ok, "; ".join(details))


def test_criterion_07_diagonal_trap():
    model, target = qubit(mu=1.0, eta=0.5)
    ctrl = ControllerSpec(kind="linear", k=2.0)
    rho_half = np.eye(2, dtype=complex) / 2
    cfg = EnsembleConfig(
        n_trajectories=500,
        model=model,
        target=target,
        controller=ctrl,
        sim=SimConfig(dt=1e-3, t_final=20.0, seed=111, record_stride=200),
        rho0=rho_half,
    )
    stats = run_ensemble(cfg)
    band = 3.0 * np.sqrt(0.25 / stats.n_valid)
    # stride-1 sub-run: the control and the off-diagonals at every single step
    sim = SimConfig(dt=1e-3, t_final=5.0, seed=112, record_stride=1)
    res = run_batch(rho_half, model, target, ctrl, sim, n_trajectories=16,
                    record_states=True)
    u_max = float(np.max(np.abs(res.controls)))
    off = float(np.max(np.abs(res.states[..., 0, 1])))
    ok = (
        u_max <= 1e-12
        and off < 1e-9
        and abs(stats.target_frequency - 0.5) <= band
    )
    assert report(
        7,
        ok,
        f"max |u| = {u_max:.1e}, max off-diagonal = {off:.1e}, "
        f"frequency {stats.target_frequency:.3f} vs 0.5 (3 SE = {band:.3f})",
    )


def test_criterion_08_closed_loop_stabilization():
    # Expected red at the pinned gains. At k = ell = 1 the completed-square
    # law leaves the antipodal pole locally attracting: linearizing the y
    # dynamics there gives coefficient 2 k^2 (1 - 4/ell^2) - 2 mu = -8, and
    # the variance kick enters only at second order, so a fraction of the
    # ensemble locks onto the wrong pole (measured ~0.58 at N = 2). Raising
    # the gains to k = ell = 3 flips the coefficient to +8 and the measured
    # frequency is 1.000; the supermartingale certificate holds at any gain.
    # The gain pair here is kept as pinned rather than retuned.
    details = []
    freqs = []
    violations = 0
    cases = (
        (qubit(mu=1.0, eta=0.5), np.eye(2, dtype=complex) / 2),
        (qutrit(mu=1.0, eta=0.5, h_b=H_B3_FIRST_ROW), np.eye(3, dtype=complex) / 3),
    )
    for (model, target), rho0 in cases:
        cfg = EnsembleConfig(
            n_trajectories=500,
            model=model,
            target=target,
            controller=ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0),
            sim=SimConfig(dt=1e-3, t_final=20.0, seed=2024, record_stride=200),
            rho0=rho0,
        )
        stats = run_ensemble(cfg)
        freqs.append(stats.target_frequency)
        violations += stats.supermartingale_violations
        details.append(
            f"N={model.n}: frequency {stats.target_frequency:.3f} "
            f"(needs >= 0.95), supermartingale violations "
            f"{stats.supermartingale_violations}"
        )
    ok = violations == 0 and all(f >= 0.95 for f in freqs)
    assert report(8, ok, "; ".join(details))


def test_criterion_09_bloch_equivalence():
    omega, mu, eta = 1.0, 1.0, 0.5
    model, target = qubit(mu=mu, eta=eta, omega=omega)
    ctrl = ControllerSpec(kind="square_of_sum", k=1.0, ell=1.0)
    b0 = np.array([0.3, 0.2, 0.1])
    sim = SimConfig(dt=1e-3, t_final=5.0, seed=515, record_stride=1)
    times, paths = integrate_bloch(b0, omega, ctrl, mu, eta, sim, n_trajectories=10)
    res = run_batch(
        to_density(b0), model, target, ctrl, sim, n_trajectories=10, record_states=True
    )
    gap = float(np.max(np.abs(paths - from_density(res.states))))
    ok = gap < 1e-9
    assert report(
        9, ok, f"10 paired trajectories, {len(times)} steps each: max |delta b| = {gap:.2e}"
    )


def test_criterion_10_rank_condition():
    def brute_rank(mats):
        rows = np.stack(
            [np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats]
        )
        return int(np.linalg.matrix_rank(rows, tol=1e-10))

    model, target = qubit()
    rep = kalman_like_rank(model, target)
    oracle = brute_rank(
        iterated_commutators(-1j * model.h_a, control_direction(model, target), 1)
    )
    canonical_ok = rep.passed and rep.achieved_rank == 2 == oracle

    # dropping the only coupling entry leaves the graph disconnected; the
    # model refuses it, and the raw commutator span confirms the deficiency
    h_b_cut = np.zeros((2, 2), dtype=complex)
    refused = False
    try:
        ModelSpec(h_a=SZ, h_b=h_b_cut, c=SZ, mu=1.0, eta=1.0)
    except ValueError:
        refused = True
    b0_cut = -1j * (h_b_cut @ RHO_D2 - RHO_D2 @ h_b_cut)
    cut_rank = brute_rank(iterated_commutators(-1j * SZ, b0_cut, 1))
    ok = canonical_ok and refused and cut_rank < 2
    assert report(
        10,
        ok,
        f"canonical rank {rep.achieved_rank}/{rep.required_rank} (oracle {oracle}); "
        f"cut coupling refused = {refused}, cut-span rank {cut_rank}",
    )


def test_criterion_11_levelset_regeneration():
    mu, eta = 1.0, 0.5
    maxima = []
    ok = True
    for k, ell in ((1.0, 1.0), (3.0, 3.0), (5.0, 5.0)):
        tab = levelset_table(k, ell, mu, eta, resolution=201)
        res = 201
        y = tab["y"].reshape(res, res)
        z = tab["z"].reshape(res, res)
        lv = tab["lv"].reshape(res, res)
        phys = tab["physical"].reshape(res, res).astype(bool)
        ok = ok and bool(np.all(lv[phys] <= 0.0))
        # both poles sit on the zero locus
        poles = (np.abs(y) < 1e-12) & (np.abs(np.abs(z) - 1.0) < 1e-12)
        ok = ok and poles.sum() == 2 and bool(np.all(lv[poles] == 0.0))
        # zero locus inside the disc at |z| <= 0.9, located by sign changes of
        # the completed sum along the y axis; lv = -g^2 never changes sign
        g = k * y * (1.0 + 4.0 * z / ell**2) - (2.0 * np.sqrt(mu * eta) / ell) * (
            1.0 - z**2
        )
        band = phys & (np.abs(z) <= 0.9)
        bracket = (g[:-1, :] * g[1:, :] < 0.0) & band[:-1, :] & band[1:, :]
        y_mid = 0.5 * (y[:-1, :] + y[1:, :])
        maxima.append(float(np.max(np.abs(y_mid[bracket]))))
    shrink = maxima[0] > maxima[1] > maxima[2]
    ok = ok and shrink
    assert report(
        11,
        ok,
        "zero-locus max |y| at (1,1)/(3,3)/(5,5): "
        + "/".join(f"{m:.3f}" for m in maxima)
        + f", monotone shrink {shrink}",
    )


def test_criterion_12_gain_limit():
    rng = np.random.default_rng(2020)
    worst_rel = 0.0
    for n, build in ((2, qubit), (3, qutrit)):
        model, target = build(mu=1.0, eta=0.5)
        for k in (1.0, 1.4):
            rho = ginibre(rng, n, batch=(500,))
            tuned = feedback(
                rho, model, target, ControllerSpec(kind="tuned", k=k, ell=1e6)
            )
            lin = feedback(
                rho, model, target, ControllerSpec(kind="linear", k=k * k)
            )
            scale = max(1.0, float(np.max(np.abs(lin))))
            worst_rel = max(worst_rel, float(np.max(np.abs(tuned - lin))) / scale)
    ok = worst_rel <= 1e-5
    assert report(
        12, ok, f"2000 densities: worst relative gap tuned vs linear {worst_rel:.2e}"
    )
