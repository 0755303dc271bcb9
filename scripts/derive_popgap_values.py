"""Independent oracle for the generalized popularity model.

Recomputes every quantity with scipy + hand logic (no rankgap imports in the
oracle section), then cross-checks the rankgap.popgap implementation against
the oracle numbers.  Run from the repo root:

    PYTHONPATH=src python3 scripts/derive_popgap_values.py
"""

import math

import numpy as np
from scipy.linalg import svdvals

RT2 = math.sqrt(2.0)


def delta_oracle(a, n_bar):
    n = a.shape[1]
    kappa = a[:, n_bar:].sum(axis=0).max() if n_bar < n else 0.0
    pop = a[:, :n_bar]
    s = svdvals(pop)
    sigma = s[n_bar - 1] if n_bar <= s.size else 0.0
    return 2.0**2.5 * kappa * n**1.5 / sigma**2, kappa, sigma


def top_set(row):
    return set(np.flatnonzero(row == row.max()).tolist())


def classes_oracle(a, n_bar):
    maj, mino = set(), set()
    for u in range(a.shape[0]):
        tops = top_set(a[u])
        if any(i < n_bar for i in tops):
            maj.add(u)
        if any(i >= n_bar for i in tops):
            mino.add(u)
    return maj, mino


def membership_oracle(a, n_bar):
    delta, kappa, sigma = delta_oracle(a, n_bar)
    maj, mino = classes_oracle(a, n_bar)
    n = a.shape[1]
    ok = True
    for u in maj:
        tops = top_set(a[u])
        off = [a[u, i] for i in range(n) if i not in tops]
        if not off or not (max(off) < a[u].max() - delta):
            ok = False
    for u in mino:
        if not (a[u, :n_bar].max() > delta):
            ok = False
    return ok, delta, kappa, sigma, maj, mino


def simulate_rank_and_recs(a, alpha):
    """From-scratch truncation + per-row argmax (ties by column popularity)."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int((s > 1e-10 * s[0]).sum())
    k = rank
    for j in range(1, rank):
        if s[j] <= alpha + 1e-9 * max(1.0, s[0]):
            k = j
            break
    hat = (u[:, :k] * s[:k]) @ vt[:k]
    pop = np.abs(hat).sum(axis=0)
    recs = []
    tol = 1e-9 * max(1.0, s[0])
    for row in hat:
        tied = np.flatnonzero(row >= row.max() - tol)
        best = tied[np.argmax(pop[tied])]
        top_pop = pop[tied].max()
        tied = [i for i in tied if pop[i] >= top_pop - 1e-9 * max(1.0, pop.max())]
        recs.append(min(tied))
    return k, recs, hat


def build_gap_instance(n_bar, g, niche_attach, top=0.3, popular=0.25):
    """Indicator popular groups plus one minority user per niche item."""
    n_niche = len(niche_attach)
    n = n_bar + n_niche
    m = n_bar * g + n_niche
    a = np.zeros((m, n))
    for j in range(n_bar):
        a[j * g : (j + 1) * g, j] = 1.0
    for j, attach in enumerate(niche_attach):
        u = n_bar * g + j
        a[u, n_bar + j] = top
        a[u, attach] = popular
    return a


def main():
    print("== worked gap arithmetic: 4 popular indicator columns, 100 users each ==")
    delta_expected = 2.0**2.5 * 1.0 * 6.0**1.5 / 100.0
    print(f"delta = {delta_expected!r}  (expect ~0.831)")

    lo = math.sqrt((6 - 4) * 1.0)
    hi = 2.0**1.25 * 6.0**0.75 * 1.0
    print(f"gap interval (n=6, n_bar=4, kappa=1) = ({lo!r}, {hi!r})")

    print("\n== in-class instance: n_bar=4, g=200, niche attach (0, 1) ==")
    a = build_gap_instance(4, 200, (0, 1))
    ok, delta, kappa, sigma, maj, mino = membership_oracle(a, 4)
    print(f"kappa={kappa!r} sigma={sigma!r} delta={delta!r} in_class={ok}")
    print(f"|maj|={len(maj)} |min|={len(mino)} exclusive={not (maj & mino)}")
    s_full = svdvals(a)
    lb = 2.0**1.25 * 6.0**0.75 * math.sqrt(kappa)
    ub = math.sqrt(2 * kappa)
    print(f"sigma_4={s_full[3]!r} >= {lb!r}: {s_full[3] >= lb}")
    print(f"sigma_5={s_full[4]!r} <= {ub!r}: {s_full[4] <= ub}")
    interval = (ub, lb)
    alpha = 0.5 * (interval[0] + interval[1])
    k, recs, hat = simulate_rank_and_recs(a, alpha)
    print(f"alpha={alpha!r} -> k*={k} (expect 4)")
    maj_ok = all(recs[u] in top_set(a[u]) and recs[u] < 4 for u in maj)
    min_ok = all(recs[u] < 4 for u in mino)
    print(f"majority recs true-top popular: {maj_ok}; minority recs popular: {min_ok}")
    # projection distance vs delta bound
    vt = np.linalg.svd(a, full_matrices=False)[2]
    pi = vt[:4].T @ vt[:4]
    ref = np.zeros((6, 6))
    ref[:4, :4] = np.eye(4)
    dist = np.linalg.norm(pi - ref, "fro")
    print(f"projection distance {dist!r} <= {delta / (2 * math.sqrt(6))!r}: "
          f"{dist <= delta / (2 * math.sqrt(6))}")
    sw_truthful = sum(a[u, recs[u]] for u in range(a.shape[0]))
    r_lower = max(a[u, :4].max() for u in mino)
    bound = len(mino) * r_lower + sum(a[u].max() for u in maj)
    print(f"SW={sw_truthful!r} <= {bound!r}: {sw_truthful <= bound}")

    print("\n== strategy instance: g=400, q=160, c=0.75 ==")
    g, q, c = 400, 160, 0.75
    n_bar, n = 4, 6
    a = np.zeros((4 * g + 2, 6))
    for j in range(4):
        a[j * g : (j + 1) * g, j] = 1.0
    u_switch, u_resid = 4 * g, 4 * g + 1
    a[u_switch, 4] = 0.3
    a[u_switch, 0] = 0.1
    a[u_resid, 5] = 0.2
    a[u_resid, 1] = 0.16
    ok, delta, kappa, sigma, maj, mino = membership_oracle(a, 4)
    print(f"in_class={ok} kappa={kappa!r} delta={delta!r} sigma_pop={sigma!r}")
    switch = {u for u in mino if 4 in top_set(a[u])}
    resid = mino - switch
    print(f"switch={switch} resid={resid}")
    head = a[sorted(resid), :5]
    d_lower = max(0.0, head.max(axis=1).sum() - head.min(axis=1).sum())
    d_upper = sum(a[u, 4] for u in switch) - sum(a[u, :4].max() for u in switch)
    print(f"delta window [{d_lower!r}, {d_upper!r}) positive: {d_upper > d_lower}")

    r_tilde = a[:, 4].copy()
    collective = []
    for j in range(4):
        collective.extend(range(j * g, j * g + q))
    r_tilde[collective] = c
    energy = float(r_tilde @ r_tilde)
    cross = float(np.linalg.norm(r_tilde @ a[:, :4]))
    radicand = min(energy, sigma**2) - cross
    sig_hat = math.sqrt(radicand)
    kappa_tail = a[:, 5:].sum(axis=0).max()
    gap = 2.0**2.5 * n**1.5 * kappa_tail / radicand
    print(f"energy={energy!r} cross={cross!r} sigma_hat={sig_hat!r} gap={gap!r}")

    alpha = 2.0
    g_lo = math.sqrt((n - n_bar) * kappa)
    g_hi = 2.0**1.25 * n**0.75 * math.sqrt(kappa)
    print(f"alpha in ({g_lo!r}, {g_hi!r}): {g_lo < alpha < g_hi}")
    tail_bound = math.sqrt((n - n_bar - 1) * kappa_tail)
    print(f"alpha above tail bound {tail_bound!r}: {alpha > tail_bound}")
    c1 = alpha < sig_hat
    c2 = all(r_tilde[u] < a[u].max() - gap for u in maj)
    c3 = all(
        max(a[u, i] for i in range(n) if i not in top_set(a[u])) < a[u].max() - gap
        for u in maj
    )
    c4 = all(
        max(a[u, i] for i in range(n) if i not in top_set(a[u])) < a[u, 4] - gap
        for u in switch
    )
    c5 = all(a[u, :5].max() - gap > 0 for u in resid)
    print(f"conditions: {c1} {c2} {c3} {c4} {c5}")

    a_coll = a.copy()
    a_coll[:, 4] = r_tilde
    k_t, recs_t, _ = simulate_rank_and_recs(a, alpha)
    k_c, recs_c, _ = simulate_rank_and_recs(a_coll, alpha)
    sw_t = sum(a[u, recs_t[u]] for u in range(a.shape[0]))
    sw_c = sum(a[u, recs_c[u]] for u in range(a.shape[0]))
    print(f"k* truthful={k_t} (expect 4), collective={k_c} (expect 5)")
    print(f"SW truthful={sw_t!r} collective={sw_c!r} rho={sw_c / sw_t!r}")
    pareto = all(a[u, recs_c[u]] >= a[u, recs_t[u]] for u in range(a.shape[0]))
    print(f"pareto: {pareto}")

    print("\n== cross-check against rankgap.popgap ==")
    import rankgap.popgap as pg
    from rankgap.matrix import RatingsMatrix

    m1 = RatingsMatrix(build_gap_instance(4, 200, (0, 1)), nonnegative=True)
    split1 = pg.PopularitySplit(m1, 4)
    rep = split1.membership
    d_ours, k_ours, s_ours = delta_oracle(build_gap_instance(4, 200, (0, 1)), 4)
    assert rep.in_class and split1.classes_exclusive and split1.has_minority
    assert abs(split1.delta_gap - d_ours) < 1e-15, (split1.delta_gap, d_ours)
    assert split1.kappa == k_ours
    bounds = split1.singular_bounds
    assert bounds.lower_ok and bounds.upper_ok
    dist_mod = split1.projection_gap
    iv = split1.window
    assert not iv.is_empty
    print(f"module: delta={split1.delta_gap!r} interval=({iv.lower!r}, {iv.upper!r}) "
          f"proj={dist_mod!r}")

    split2 = pg.PopularitySplit(RatingsMatrix(a, nonnegative=True), 4)
    report = split2.general_sufficiency(r_tilde, alpha)
    print(f"module preconditions: {report.preconditions}")
    print(f"module conditions: {report.conditions}")
    print(f"module sigma_hat={report.sigma_hat!r} gap={report.ratings_gap!r} "
          f"verdict={report.verdict}")
    assert report.verdict
    assert abs(report.sigma_hat - sig_hat) < 1e-12
    assert abs(report.ratings_gap - gap) < 1e-12
    assert report.alpha_above_tail
    win = split2.delta_window
    assert (win.lower, win.upper) == (d_lower, d_upper) and win.has_positive_point
    assert split2.switch_users.tolist() == sorted(switch)
    larger = split1.larger_splits
    print(f"no-larger-split: premise={larger.premise_holds} "
          f"confirmed={larger.confirmed} checked={larger.checked}")
    strat = pg.GeneralStrategy(r_tilde)
    assert strat.is_realistic(split2)
    print("cross-check OK")


if __name__ == "__main__":
    main()
