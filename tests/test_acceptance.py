"""Desk-scale acceptance gate: the eight headline claims, one test each.

Every test prints a single PASS/FAIL line (visible with -s or -rA) and then
asserts, so the -v listing doubles as the checklist.  Configurations are
pinned, replication streams are seeded, and training is single-threaded, so
each verdict is deterministic.  The statistical claims (criteria 3, 5, 6, 7)
were sized so their margins clear the replication noise at the pinned seeds;
tolerances come from the claim itself, not from what the code happens to do.
"""

import numpy as np
import pytest

from dragonbench.bench import (
    DEFAULT_TRUNCATION_LEVELS,
    ExperimentConfig,
    run_experiment,
    run_grid,
    subsample_sweep,
    truncation_sweep,
)
from dragonbench.datagen import gen_dgp_lin, lin_true_propensity
from dragonbench.estimators import (
    TAG_Q,
    TAG_TREG,
    diff_in_means,
    psi_aiptw,
    psi_q,
    psi_tmle,
    psi_treg,
)
from dragonbench.models import FittedModel, init_network
from dragonbench.train import TrainConfig, _composite_terms, _weighted_total, train_dragonnet

pytestmark = pytest.mark.acceptance

FD_STEP = 1e-5
FD_REL = 1e-4
FD_ABS = 1e-7


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# --- criterion 1: analytic gradients match finite differences ---------------


def _random_setup(arch: str, rng):
    p = int(rng.integers(1, 5))
    n = int(rng.integers(4, 9))
    shared = tuple(int(w) for w in rng.integers(2, 4, size=int(rng.integers(1, 3))))
    outcome = (int(rng.integers(2, 4)),)
    init_rng = np.random.default_rng(int(rng.integers(0, 2**32)))
    params = init_network(init_rng, p, shared, outcome, arch)
    for leaf in params.leaves():
        leaf += 0.3 * rng.standard_normal(leaf.shape)
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    t = rng.integers(0, 2, size=n).astype(np.float64)
    return params, X, y, t


def _objective(params, X, y, t, cfg, leaves=None):
    terms = _composite_terms(params, X, y, t, leaves, cfg)
    return _weighted_total(terms, cfg.alpha, cfg.beta)


def _fd_coordinate(params, X, y, t, cfg, leaf, j):
    flat = leaf.reshape(-1)
    keep = flat[j]
    flat[j] = keep + FD_STEP
    up = float(_objective(params, X, y, t, cfg))
    flat[j] = keep - FD_STEP
    down = float(_objective(params, X, y, t, cfg))
    flat[j] = keep
    return (up - down) / (2.0 * FD_STEP)


def test_criterion_1_gradient_check():
    """Backprop through both objectives agrees with central differences."""
    import dragonbench.autodiff as ad

    rng = np.random.default_rng(12345)
    checked = 0
    worst = 0.0
    for arch in ("dragonnet", "tarnet"):
        for _ in range(100):
            params, X, y, t = _random_setup(arch, rng)
            leaves = params.leaves()
            eps_leaf = next(i for i, leaf in enumerate(leaves) if leaf is params.epsilon)
            for beta in (0.0, float(rng.uniform(0.3, 2.0))):
                cfg = TrainConfig(alpha=float(rng.uniform(0.3, 2.0)), beta=beta)
                _, grads = ad.gradients(
                    leaves, lambda vs: _objective(params, X, y, t, cfg, vs)
                )
                pool = [(i, j) for i, leaf in enumerate(leaves) for j in range(leaf.size)]
                picks = [pool[k] for k in rng.choice(len(pool), size=10, replace=False)]
                picks.append((eps_leaf, 0))
                for i, j in picks:
                    fd = _fd_coordinate(params, X, y, t, cfg, leaves[i], j)
                    an = grads[i].reshape(-1)[j]
                    gap = abs(an - fd)
                    tol = FD_ABS + FD_REL * abs(fd)
                    worst = max(worst, gap / tol)
                    assert gap <= tol, (
                        f"{arch} beta={beta}: leaf {i} coord {j}: "
                        f"analytic {an} vs fd {fd}"
                    )
                    checked += 1
    ok = worst <= 1.0
    report(1, ok, f"{checked} coordinates over 200 configs x 2 objectives, "
                  f"worst deviation at {worst:.3f} of tolerance")
    assert ok


# --- criterion 2: influence-curve zeroing ------------------------------------


@pytest.fixture(scope="module")
def lin_treg_model():
    data = gen_dgp_lin(2000, 10, 1.0, 1.0, 1.0, np.random.default_rng(42))
    cfg = TrainConfig(alpha=1.0, beta=1.0, epochs=100, patience=8, seed=7)
    return data, train_dragonnet(data, cfg)


def test_criterion_2_influence_zeroing(lin_treg_model):
    """A-IPTW and TMLE zero mean(phi) by construction; joint training with
    the fluctuation term reaches the same stationarity statistically."""
    rng = np.random.default_rng(2024)
    n = 60
    X = rng.standard_normal((n, 3))
    q0 = rng.standard_normal(n)
    q1 = rng.standard_normal(n)
    g = rng.uniform(0.15, 0.85, size=n)
    t = rng.integers(0, 2, size=n).astype(np.float64)
    y = rng.standard_normal(n)
    table = FittedModel.from_values(X, q0, q1, g)

    _, iv_aiptw = psi_aiptw(*table.predict(X), t, y)
    _, iv_tmle, _ = psi_tmle(*table.predict(X), t, y)

    data, model = lin_treg_model
    _, iv_treg = psi_treg(*model.predict(data.X), data.t, data.y, model.epsilon_hat)

    ok = (
        abs(iv_aiptw.mean_phi) <= 1e-12
        and abs(iv_tmle.mean_phi) <= 1e-8
        and abs(iv_treg.mean_phi) < 1e-3
    )
    report(2, ok, f"mean phi: aiptw {iv_aiptw.mean_phi:.2e} (tol 1e-12), "
                  f"tmle {iv_tmle.mean_phi:.2e} (tol 1e-8), "
                  f"trained treg {iv_treg.mean_phi:.2e} (tol 1e-3)")
    assert ok


# --- criterion 3: known-ATE recovery beats difference-in-means ---------------


def test_criterion_3_known_ate_recovery():
    """On the linear DGP the targeted estimate lands at least 2x closer to
    the true effect than raw difference-in-means, whose confounding bias is
    first confirmed on a 50k-draw oracle."""
    mc = gen_dgp_lin(50000, 10, 1.0, 1.0, 1.0, np.random.default_rng(4242))
    dim_mc = diff_in_means(mc.t, mc.y)
    n1 = int(mc.t.sum())
    n0 = mc.n - n1
    mc_se = float(np.sqrt(mc.y[mc.t == 1].var(ddof=1) / n1
                          + mc.y[mc.t == 0].var(ddof=1) / n0))
    mc_bias = abs(dim_mc - 1.0)

    cfg = ExperimentConfig(
        dgp={"kind": "lin", "n": 2000, "p": 10, "tau": 1.0,
             "confounding_strength": 1.0},
        architecture="dragonnet", treg=True, alpha=1.0, beta=1.0,
        split=(0.8, 0.2, 0.0), replications=20, base_seed=42,
        train=TrainConfig(epochs=100, patience=8),
    )
    result = run_experiment(cfg)
    runs = [r for r in result.runs if r.usable()]
    treg_err = float(np.mean([r.abs_errors["all"][TAG_TREG] for r in runs]))
    dim_err = float(np.mean([r.dim_abs_error for r in runs]))

    ok = mc_bias > 3.0 * mc_se and len(runs) >= 20 and dim_err >= 2.0 * treg_err
    report(3, ok, f"oracle DIM bias {mc_bias:.3f} ({mc_bias / mc_se:.0f} MC se); "
                  f"over {len(runs)} seeds: treg {treg_err:.4f} vs DIM {dim_err:.4f} "
                  f"({dim_err / treg_err:.1f}x, need >= 2x)")
    assert ok


# --- criterion 4: double robustness with a true-propensity oracle ------------


def test_criterion_4_double_robustness():
    """With the true g and Q == 0, the corrected estimators recover tau while
    the plug-in misses by exactly tau."""
    data = gen_dgp_lin(5000, 10, 1.0, 1.0, 1.0, np.random.default_rng(9))
    zero = lambda X: np.zeros(X.shape[0])
    model = FittedModel.from_functions(
        q0=zero, q1=zero, g=lambda X: lin_true_propensity(X, 1.0)
    )
    tau = data.true_ate

    q0, q1, g = model.predict(data.X)
    est_q = psi_q(q0, q1)
    est_a, iv_a = psi_aiptw(q0, q1, g, data.t, data.y)
    est_t, iv_t, _ = psi_tmle(q0, q1, g, data.t, data.y)
    se_a = float(iv_a.phi.std(ddof=1) / np.sqrt(data.n))
    se_t = float(iv_t.phi.std(ddof=1) / np.sqrt(data.n))

    plug_exact = est_q.psi_hat == 0.0 and abs(est_q.psi_hat - tau) == tau
    ok = (
        plug_exact
        and abs(est_a.psi_hat - tau) < 5.0 * se_a
        and abs(est_t.psi_hat - tau) < 5.0 * se_t
    )
    report(4, ok, f"plug-in error exactly tau={tau}; "
                  f"aiptw off by {abs(est_a.psi_hat - tau):.4f} (5se {5 * se_a:.4f}), "
                  f"tmle off by {abs(est_t.psi_hat - tau):.4f} (5se {5 * se_t:.4f})")
    assert ok


# --- criterion 5: method ordering on the semi-synthetic benchmark -----------


@pytest.fixture(scope="module")
def ihdp_grid():
    cfg = ExperimentConfig(
        dgp={"kind": "ihdp_like", "n": 747, "p": 25},
        alpha=1.0, beta=1.0, split=(0.63, 0.27, 0.10), replications=50,
        base_seed=7, train=TrainConfig(epochs=100, patience=8),
    )
    return run_grid(cfg)


def test_criterion_5_method_ordering(ihdp_grid):
    """Mean headline error orders dragonnet+treg <= dragonnet <= tarnet and
    dragonnet+treg <= tarnet+treg, strictly or within one pooled SE."""
    stats = {}
    for label, result in ihdp_grid.results.items():
        tag = result.config.headline_tag()
        row = next(r for r in result.summary.rows if r.estimator == tag)
        stats[label] = (row.mean_abs_err, row.std_err, row.n_runs)

    def ordered(a, b):
        (ma, sa, _), (mb, sb, _) = stats[a], stats[b]
        return ma <= mb + float(np.hypot(sa, sb))

    pairs = [("dragonnet+treg", "dragonnet"),
             ("dragonnet", "tarnet"),
             ("dragonnet+treg", "tarnet+treg")]
    ok = all(ordered(a, b) for a, b in pairs) and all(
        s[2] >= 50 for s in stats.values()
    )
    detail = ", ".join(f"{label} {m:.4f}(se {s:.4f})"
                       for label, (m, s, _) in sorted(stats.items()))
    report(5, ok, detail)
    assert ok


# --- criteria 6 and 7: representation tradeoff on outcome-only covariates ----

IRR_TRAIN = TrainConfig(epochs=60, patience=8, shared_widths=(32,),
                        outcome_widths=(16,))
IRR_CELLS = (("tarnet", 0), ("tarnet", 10), ("tarnet", 20),
             ("dragonnet", 0), ("dragonnet", 10), ("dragonnet", 20),
             ("nednet", 20))


@pytest.fixture(scope="module")
def irrelevant_cells():
    out = {}
    for arch, p_outcome_only in IRR_CELLS:
        cfg = ExperimentConfig(
            dgp={"kind": "irrelevant", "n": 1000, "p_confound": 5,
                 "p_outcome_only": p_outcome_only, "tau": 1.0},
            architecture=arch, treg=False, alpha=3.0,
            split=(0.7, 0.1, 0.2), replications=100, base_seed=11,
            train=IRR_TRAIN,
        )
        out[(arch, p_outcome_only)] = run_experiment(cfg)
    return out


def _cell_means(cells, arch, p_outcome_only):
    runs = [r for r in cells[(arch, p_outcome_only)].runs if r.usable()]
    q_err = float(np.mean([r.abs_errors["all"][TAG_Q] for r in runs]))
    mse = float(np.mean([r.heldout_mse for r in runs]))
    return q_err, mse, len(runs)


def test_criterion_6_propensity_sufficiency(irrelevant_cells):
    """Dragonnet stays the worse outcome predictor at every level of
    outcome-only covariates, yet its plug-in error advantage over tarnet
    never shrinks as their count grows."""
    levels = (0, 10, 20)
    adv = []
    mse_ok = []
    ks = []
    for po in levels:
        q_t, mse_t, k_t = _cell_means(irrelevant_cells, "tarnet", po)
        q_d, mse_d, k_d = _cell_means(irrelevant_cells, "dragonnet", po)
        adv.append(q_t - q_d)
        mse_ok.append(mse_d >= mse_t)
        ks.extend([k_t, k_d])
    nondecreasing = adv[0] <= adv[1] <= adv[2]
    ok = all(mse_ok) and nondecreasing and min(ks) >= 20
    report(6, ok, "advantage by p_outcome_only "
                  + ", ".join(f"{po}: {a:+.4f}" for po, a in zip(levels, adv))
                  + f"; dragonnet mse >= tarnet mse at all levels: {all(mse_ok)}"
                  + f" (k >= {min(ks)})")
    assert ok


def test_criterion_7_two_stage_comparison(irrelevant_cells):
    """Joint training estimates no worse than the two-stage variant on the
    heavily padded cell of the same DGP."""
    q_d, _, k_d = _cell_means(irrelevant_cells, "dragonnet", 20)
    q_n, _, k_n = _cell_means(irrelevant_cells, "nednet", 20)
    ok = q_d <= q_n and min(k_d, k_n) >= 20
    report(7, ok, f"plug-in error over {min(k_d, k_n)} seeds: "
                  f"dragonnet {q_d:.4f} <= nednet {q_n:.4f}")
    assert ok


# --- criterion 8: sweep plumbing and determinism ------------------------------


def _stripped(result):
    runs = []
    for r in result.runs:
        d = r.to_dict()
        d.pop("wall_time")
        runs.append(d)
    return runs


def test_criterion_8_sweep_plumbing():
    """Truncation sweep emits exactly the three default levels; rate-1.0
    subsampling and parallel execution bit-match the plain run."""
    cfg = ExperimentConfig(
        dgp={"kind": "lin", "n": 240, "p": 4, "tau": 1.0,
             "confounding_strength": 1.0},
        architecture="dragonnet", treg=False, alpha=1.0,
        split=(0.7, 0.2, 0.1), replications=3, base_seed=5,
        train=TrainConfig(epochs=6, patience=3, shared_widths=(8,),
                          outcome_widths=(4,)),
    )
    base = run_experiment(cfg)
    again = run_experiment(cfg)
    parallel = run_experiment(replace_workers(cfg, 2))
    full_rate = subsample_sweep(cfg, [1.0])[1.0]
    trunc = truncation_sweep(cfg)

    levels_ok = tuple(trunc.keys()) == DEFAULT_TRUNCATION_LEVELS
    repeat_ok = _stripped(again) == _stripped(base)
    parallel_ok = _stripped(parallel) == _stripped(base)
    subsample_ok = _stripped(full_rate) == _stripped(base)
    ok = levels_ok and repeat_ok and parallel_ok and subsample_ok
    report(8, ok, f"levels {tuple(trunc.keys())}; repeat bit-match {repeat_ok}, "
                  f"parallel bit-match {parallel_ok}, rate-1.0 bit-match {subsample_ok}")
    assert ok


def replace_workers(cfg: ExperimentConfig, workers: int) -> ExperimentConfig:
    from dataclasses import replace

    return replace(cfg, workers=workers)
