"""Acceptance checklist for the deliverable.

Each test pins one acceptance criterion at its contractual tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them inline).
"""

import time

import numpy as np

from twoatom import qmat
from twoatom.entanglement import concurrence, is_ppt_separable
from twoatom.model import ModelParams, evolve_series
from twoatom.propagator import (
    asymptotic_params,
    asymptotic_state,
    c_max,
    evolve,
    t_gamma,
)
from twoatom.states import bell, bell_diagonal, mems, mems_h, mes, product_state, werner

from conftest import random_single_qubit_unitary, random_states, state_defect

P_G1 = ModelParams(gamma0=1.0, g=1.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")


def test_criterion_1_closed_form_matches_rk4_oracle():
    """100 seeded states, t in {0.1, 0.5, 1, 2, 5}: |closed form - RK4| < 1e-6 at g = 1, < 10 s."""
    sample_times = [0.1, 0.5, 1.0, 2.0, 5.0]
    start = time.perf_counter()
    worst = 0.0
    for rho in random_states(1001, 100):
        numeric = evolve_series(rho, P_G1, sample_times)
        for t, num_state in zip(sample_times, numeric):
            worst = max(worst, np.abs(evolve(rho, P_G1, t) - num_state).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    _report(1, "closed form vs RK4 oracle", ok, f"max err {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_2_asymptotic_map():
    """Closed form at g = 1, t=50 vs stationary map < 1e-8; concurrence vs 2|alpha| < 1e-10."""
    worst_state = 0.0
    worst_conc = 0.0
    for rho in random_states(1002, 100):
        stat = asymptotic_state(rho)
        worst_state = max(worst_state, np.abs(evolve(rho, P_G1, 50.0) - stat).max())
        alpha = asymptotic_params(rho).alpha
        worst_conc = max(worst_conc, abs(concurrence(stat) - 2.0 * abs(alpha)))
    ok = worst_state < 1e-8 and worst_conc < 1e-10
    _report(
        2, "stationary states and their concurrence", ok,
        f"state err {worst_state:.2e}, concurrence err {worst_conc:.2e}",
    )
    assert worst_state < 1e-8
    assert worst_conc < 1e-10


def test_criterion_3_excited_ground_concurrence_curve():
    """Curve (1 - exp(-2t))/2 on 501 points of [0, 5]; asymptote 1/2.

    |10> = (|s> + |a>)/sqrt(2).  At g = 1 the superradiant population decays
    at gamma0 + gamma = 2 gamma0 and the subradiant one is frozen, so
    C = |rho_ss - rho_aa| = (1 - exp(-2 gamma0 t))/2 = exp(-gamma0 t) sinh(gamma0 t),
    the g -> 1 limit of criterion 4's curve.  This replaces an earlier pin,
    (1 - exp(-gamma0 t))/2, which contradicts the generator.
    """
    rho0 = product_state(qmat.EXCITED, qmat.GROUND)
    grid = np.linspace(0.0, 5.0, 501)
    computed = np.array([concurrence(evolve(rho0, P_G1, t)) for t in grid])
    expected = 0.5 * (1.0 - np.exp(-2.0 * grid))
    worst = np.abs(computed - expected).max()
    asymptote_ok = abs(concurrence(evolve(rho0, P_G1, 50.0)) - 0.5) < 1e-8
    ok = worst < 1e-8 and asymptote_ok
    _report(
        3, "excited x ground transient curve", ok,
        f"max deviation from generator-exact (1-exp(-2t))/2 {worst:.2e}; "
        "replaces the pin (1-exp(-t))/2, which contradicts the generator",
    )
    assert asymptote_ok
    assert worst < 1e-8, (
        f"curve (1-exp(-2t))/2 = exp(-t)sinh(t) missed by {worst:.3e}; it is the "
        "exact solution at g = 1 (superradiant rate 2 gamma0, subradiant frozen) "
        "and the g -> 1 limit of criterion 4"
    )


def test_criterion_4_general_rate_transient():
    """Concurrence of the general-rate matrix equals exp(-t) sinh(g t); peak values."""
    grid = np.linspace(0.0, 5.0, 501)
    rho0 = product_state(qmat.EXCITED, qmat.GROUND)
    worst = 0.0
    for g in (0.3, 0.7, 0.99):
        for t in grid:
            c = concurrence(evolve(rho0, ModelParams(1.0, g), t))
            worst = max(worst, abs(c - np.exp(-t) * np.sinh(g * t)))
    # brute-force grid search against the printed peak formulas
    peak_ok = True
    for g in (0.3, 0.7, 0.99):
        ts = np.arange(0.0, 20.0, 1e-4)
        vals = np.exp(-ts) * np.sinh(g * ts)
        i = int(np.argmax(vals))
        peak_ok &= abs(ts[i] - t_gamma(1.0, g)) < 1e-4
        peak_ok &= abs(vals[i] - c_max(1.0, g)) < 1e-4
    exact_ok = (
        abs(t_gamma(1.0, 0.5) - np.log(3.0)) < 1e-9
        and abs(c_max(1.0, 0.5) - 3.0**-1.5) < 1e-9
    )
    ok = worst < 1e-8 and peak_ok and exact_ok
    _report(
        4, "general-rate transient and its peak", ok,
        f"max curve err {worst:.2e}, peak grid ok {peak_ok}, exact values ok {exact_ok}",
    )
    assert worst < 1e-8
    assert peak_ok
    assert exact_ok


def test_criterion_5_superradiant_subradiant_curves():
    """Bell-start concurrences equal exp(-(1 +- g) t) at g = 0.99; minus dominates."""
    g = 0.99
    params = ModelParams(1.0, g)
    plus, minus = bell("psi_plus"), bell("psi_minus")
    grid = np.linspace(0.0, 5.0, 501)
    worst = 0.0
    for sign, rho0 in ((+1, plus), (-1, minus)):
        for t in grid:
            c = concurrence(evolve(rho0, params, t))
            worst = max(worst, abs(c - np.exp(-(1.0 + sign * g) * t)))
    positive = grid[grid > 0]
    dominance = all(
        concurrence(evolve(minus, params, t)) > concurrence(evolve(plus, params, t))
        for t in positive[:: 25]
    )
    ok = worst < 1e-8 and dominance
    _report(
        5, "superradiant vs subradiant decay", ok,
        f"max curve err {worst:.2e}, subradiant dominates {dominance}",
    )
    assert worst < 1e-8
    assert dominance


def test_criterion_6_mixed_family_asymptotics():
    """Stationary concurrences: p4 (Bell diagonal), (1-p)/4 (isotropic), (1-2h)/2 (MEMS)."""
    from twoatom.entanglement import asymptotic_concurrence

    gen = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(50):
        p = gen.dirichlet(np.ones(4))
        worst = max(worst, abs(asymptotic_concurrence(bell_diagonal(*p)) - p[3]))
    for p in np.linspace(0.0, 1.0, 50):
        worst = max(worst, abs(asymptotic_concurrence(werner(p)) - (1 - p) / 4))
    for d in np.linspace(0.0, 1.0, 50):
        expected = 0.5 * (1 - 2 * mems_h(d))
        worst = max(worst, abs(asymptotic_concurrence(mems(d)) - expected))
    ok = worst < 1e-10
    _report(6, "mixed-family stationary concurrences", ok, f"max err {worst:.2e}")
    assert worst < 1e-10


def test_criterion_7_initial_vs_asymptotic_crossover():
    """MEMS sweep: stationary beats initial concurrence below delta=1/6, loses above 1/4."""
    from twoatom.entanglement import asymptotic_concurrence

    deltas = np.linspace(0.0, 1.0, 201)
    ok = True
    for d in deltas:
        rho = mems(d)
        c_initial = concurrence(rho)  # Wootters on the matrix, not a formula
        c_stationary = asymptotic_concurrence(rho)
        if d < 1.0 / 6.0:
            ok &= c_stationary > c_initial
        elif d > 0.25:
            ok &= c_stationary < c_initial
    _report(7, "low-purity states gain entanglement", ok)
    assert ok


def test_criterion_8_property_suite():
    """Structure preservation, measure agreement, family invariants, Bell decay."""
    details = []

    # RK4 preserves the state invariants
    structure_ok = all(
        state_defect(evolve_series(rho, P_G1, [0.1, 1.0, 5.0])) <= 1e-7
        for rho in random_states(1008, 100)
    )
    details.append(f"rk4 structure {structure_ok}")

    # concurrence and the partial-transpose test agree outside the zero band
    agreement_ok = True
    for rho in random_states(1009, 1000):
        c = concurrence(rho)
        if c > 1e-7 and is_ppt_separable(rho):
            agreement_ok = False
        if c <= 1e-7 and not is_ppt_separable(rho):
            agreement_ok = False
    details.append(f"concurrence/PPT {agreement_ok}")

    # concurrence is invariant under local unitaries
    gen = np.random.default_rng(1010)
    unitary_ok = True
    for rho in random_states(1011, 100):
        u = np.kron(random_single_qubit_unitary(gen), random_single_qubit_unitary(gen))
        if abs(concurrence(u @ rho @ u.conj().T) - concurrence(rho)) > 1e-9:
            unitary_ok = False
    details.append(f"local-unitary invariance {unitary_ok}")

    # the maximally entangled family stays pure and maximal
    mes_ok = True
    for _ in range(20):
        a = gen.uniform(0.0, 1.0)
        th1, th2 = gen.uniform(0.0, 2 * np.pi, size=2)
        rho = mes(a, th1, th2)
        purity = float(np.trace(rho @ rho).real)
        mes_ok &= abs(purity - 1.0) < 1e-12
        mes_ok &= abs(concurrence(rho) - 1.0) < 1e-10
    details.append(f"mes family {mes_ok}")

    # the antisymmetric Bell state: frozen at g = 1, decays at gamma0 - gamma below
    singlet = bell("psi_minus")
    bell_ok = np.abs(evolve_series(singlet, P_G1, 2.0) - singlet).max() < 1e-9
    params = ModelParams(1.0, 0.8)
    for t in (0.5, 1.5, 3.0):
        c = concurrence(evolve_series(singlet, params, t))
        bell_ok &= abs(c - np.exp(-(1.0 - 0.8) * t)) < 1e-8
    details.append(f"subradiant decay {bell_ok}")

    ok = structure_ok and agreement_ok and unitary_ok and mes_ok and bell_ok
    _report(8, "property suite", ok, "; ".join(details))
    assert ok, "; ".join(details)
