"""Synthetic data generating processes, CSV ingestion and splitting.

Every generator returns a `Dataset` carrying the drawn covariates,
treatment, outcome, the true conditional means mu0/mu1 so benchmarks can
score estimates against the sample average treatment effect
mean(mu1 - mu0) exactly, and the true propensity g_true.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import stable_sigmoid
from .errors import ConfigError, IngestionError, ShapeError


@dataclass(frozen=True)
class Dataset:
    """Covariates X (n, p), binary treatment t (n,), outcome y (n,).

    mu0/mu1 are the noiseless potential-outcome means and g_true the true
    propensity when known (synthetic data), None for observational files.
    true_ate is the population effect when the generator knows it.
    """

    X: np.ndarray
    t: np.ndarray
    y: np.ndarray
    mu0: np.ndarray | None = None
    mu1: np.ndarray | None = None
    true_ate: float | None = None
    g_true: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        t = np.asarray(self.t)
        y = np.asarray(self.y, dtype=np.float64)
        if X.ndim != 2:
            raise ShapeError(f"X must be 2-d, got shape {X.shape}")
        n = X.shape[0]
        if t.shape != (n,) or y.shape != (n,):
            raise ShapeError(
                f"t {t.shape} and y {y.shape} must both have shape ({n},)"
            )
        if not np.isin(t, (0, 1)).all():
            raise ConfigError("t must contain only 0 and 1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "t", t.astype(np.int64))
        object.__setattr__(self, "y", y)
        for name in ("mu0", "mu1", "g_true"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=np.float64)
                if v.shape != (n,):
                    raise ShapeError(f"{name} must have shape ({n},), got {v.shape}")
                object.__setattr__(self, name, v)
        if (self.mu0 is None) != (self.mu1 is None):
            raise ConfigError("mu0 and mu1 must be provided together")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def sample_ate(self) -> float | None:
        """mean(mu1 - mu0) over the rows actually drawn; None without mu."""
        if self.mu0 is None:
            return None
        return float(np.mean(self.mu1 - self.mu0))

    def ground_truth(self) -> float | None:
        """Reference effect for scoring: sample_ate if available, else true_ate."""
        return self.sample_ate if self.mu0 is not None else self.true_ate

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            X=self.X[idx],
            t=self.t[idx],
            y=self.y[idx],
            mu0=None if self.mu0 is None else self.mu0[idx],
            mu1=None if self.mu1 is None else self.mu1[idx],
            true_ate=self.true_ate,
            g_true=None if self.g_true is None else self.g_true[idx],
        )


# --- linear confounded DGP ------------------------------------------------

def lin_direction(p: int) -> np.ndarray:
    """Unit vector ones(p)/sqrt(p): the single confounding direction."""
    return np.ones(p) / np.sqrt(p)


def lin_true_propensity(X: np.ndarray, confounding_strength: float) -> np.ndarray:
    """g(x) = sigmoid(c * w.x) with w = lin_direction(p)."""
    X = np.asarray(X, dtype=np.float64)
    return stable_sigmoid(confounding_strength * (X @ lin_direction(X.shape[1])))


def lin_base_outcome(X: np.ndarray) -> np.ndarray:
    """f(x) = w.x: the outcome surface shares the confounding direction."""
    X = np.asarray(X, dtype=np.float64)
    return X @ lin_direction(X.shape[1])


def gen_dgp_lin(
    n: int,
    p: int,
    tau: float,
    confounding_strength: float,
    noise_sd: float,
    rng: np.random.Generator,
) -> Dataset:
    """Linear outcome with a single confounding direction.

    X ~ N(0, I_p); with u = w.x for the unit vector w = ones/sqrt(p):

        g(x) = sigmoid(confounding_strength * u)
        t ~ Bernoulli(g(x))
        y  = tau * t + u + noise_sd * N(0, 1)

    so mu0 = u, mu1 = u + tau, and the population effect is exactly tau.
    confounding_strength = 0 makes treatment independent of everything.
    Draw order: X, treatment uniforms, outcome noise.
    """
    if n < 1 or p < 1:
        raise ConfigError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    if noise_sd < 0:
        raise ConfigError(f"noise_sd must be >= 0, got {noise_sd}")
    X = rng.standard_normal((n, p))
    g = lin_true_propensity(X, confounding_strength)
    t = (rng.random(n) < g).astype(np.int64)
    f = lin_base_outcome(X)
    y = tau * t + f + noise_sd * rng.standard_normal(n)
    return Dataset(X=X, t=t, y=y, mu0=f, mu1=f + tau, true_ate=float(tau), g_true=g)


# --- DGP with outcome-only covariates -------------------------------------

IRRELEVANT_CONFOUNDING = 1.5
IRRELEVANT_OUTCOME_SCALE = 1.0
IRRELEVANT_BEND = 1.5
IRRELEVANT_EXTRA_BEND = 2.2
IRRELEVANT_PROP_BEND = 2.7
IRRELEVANT_PROP_WEIGHT = 1.5


def gen_dgp_irrelevant(
    n: int,
    p_confound: int,
    p_outcome_only: int,
    tau: float,
    rng: np.random.Generator,
    confounding_strength: float = IRRELEVANT_CONFOUNDING,
    outcome_scale: float = IRRELEVANT_OUTCOME_SCALE,
    noise_sd: float = 1.0,
) -> Dataset:
    """Confounders plus covariates that only move the outcome.

    Every column enters the outcome through its own bent response
    h(z) = sin(BEND * z) + 0.5 * z, so each column costs fitting capacity
    instead of collapsing into one linear direction.  The first p_confound
    columns form the confounding index (normalized so its variance does not
    drift with p_confound) and drive both arms; the treatment assignment
    additionally wiggles at a sharper frequency of the same columns, so the
    propensity surface needs features the outcome never rewards.  The next
    p_outcome_only columns move the outcome only:

        u(x) = sum_{j < p_confound} h(x_j) / sqrt(p_confound)
        w(x) = sum_{j < p_confound} sin(PROP_BEND * x_j) / sqrt(p_confound)
        v(x) = sum_{outcome-only j} sin(EXTRA_BEND * x_j) + 0.5 * x_j
        g(x) = sigmoid(confounding_strength * (u + PROP_WEIGHT * w))
        y    = tau * t + u + outcome_scale * v + noise_sd * N(0, 1)

    Growing p_outcome_only therefore adds treatment-irrelevant outcome signal
    that an outcome-driven representation must spend units on, while the
    confounding structure stays fixed.
    """
    if p_confound < 1:
        raise ConfigError("p_confound must be >= 1")
    if p_outcome_only < 0:
        raise ConfigError("p_outcome_only must be >= 0")
    p = p_confound + p_outcome_only
    X = rng.standard_normal((n, p))

    def bent(block: np.ndarray, freq: float) -> np.ndarray:
        return (np.sin(freq * block) + 0.5 * block).sum(axis=1)

    conf = X[:, :p_confound]
    u = bent(conf, IRRELEVANT_BEND) / np.sqrt(p_confound)
    w = np.sin(IRRELEVANT_PROP_BEND * conf).sum(axis=1) / np.sqrt(p_confound)
    g = stable_sigmoid(confounding_strength * (u + IRRELEVANT_PROP_WEIGHT * w))
    t = (rng.random(n) < g).astype(np.int64)
    v = (bent(X[:, p_confound:], IRRELEVANT_EXTRA_BEND)
         if p_outcome_only > 0 else np.zeros(n))
    f = u + outcome_scale * v
    y = tau * t + f + noise_sd * rng.standard_normal(n)
    return Dataset(X=X, t=t, y=y, mu0=f, mu1=f + tau, true_ate=float(tau), g_true=g)


# --- semi-synthetic nonlinear DGP ------------------------------------------

IHDP_LIKE_TARGET_ATE = 4.0
IHDP_LIKE_OFFSET = 0.5
IHDP_LIKE_COEFS = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
IHDP_LIKE_COEF_PROBS = np.array([0.6, 0.1, 0.1, 0.1, 0.1])
IHDP_LIKE_PROPENSITY_SCALE = 0.8
IHDP_LIKE_PROPENSITY_COVARIATES = 5


def gen_dgp_ihdp_like(
    n: int,
    p: int,
    rng: np.random.Generator,
    target_sample_ate: float = IHDP_LIKE_TARGET_ATE,
    noise_sd: float = 1.0,
) -> Dataset:
    """Nonlinear response surface with a centered offset.

    Per replication, coefficients beta_s are drawn i.i.d. from
    {0, .1, .2, .3, .4} with probabilities (.6, .1, .1, .1, .1); then

        mu0(x) = exp((x + 0.5) . beta_s)
        mu1(x) = x . beta_s - omega

    with omega chosen so mean(mu1 - mu0) over the drawn rows equals
    `target_sample_ate` exactly.  Treatment depends on the first
    min(5, p) covariates only:

        t ~ Bernoulli(sigmoid(0.8 * z)),  z = mean-normalized sum of them

    and y = mu_t + noise_sd * N(0, 1).  Draw order: X, beta_s, treatment
    uniforms, control noise, treated noise.
    """
    if n < 1 or p < 1:
        raise ConfigError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    X = rng.standard_normal((n, p))
    beta = rng.choice(IHDP_LIKE_COEFS, size=p, p=IHDP_LIKE_COEF_PROBS)
    xb = X @ beta
    mu0 = np.exp((X + IHDP_LIKE_OFFSET) @ beta)
    omega = float(np.mean(xb - mu0)) - target_sample_ate
    mu1 = xb - omega
    k = min(IHDP_LIKE_PROPENSITY_COVARIATES, p)
    z = X[:, :k] @ (np.ones(k) / np.sqrt(k))
    g = stable_sigmoid(IHDP_LIKE_PROPENSITY_SCALE * z)
    t = (rng.random(n) < g).astype(np.int64)
    y0 = mu0 + noise_sd * rng.standard_normal(n)
    y1 = mu1 + noise_sd * rng.standard_normal(n)
    y = np.where(t == 1, y1, y0)
    return Dataset(X=X, t=t, y=y, mu0=mu0, mu1=mu1, true_ate=None, g_true=g)


# --- CSV ingestion ----------------------------------------------------------

def csv_header(p: int, with_mu: bool) -> list[str]:
    cols = [f"x{i}" for i in range(p)] + ["t", "y"]
    if with_mu:
        cols += ["mu0", "mu1"]
    return cols


def write_csv(dataset: Dataset, path) -> None:
    """Write with shortest-repr floats, so load_csv round-trips bit-exactly."""
    path = Path(path)
    with_mu = dataset.mu0 is not None
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(dataset.p, with_mu))
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.X[i]]
            row.append(str(int(dataset.t[i])))
            row.append(repr(float(dataset.y[i])))
            if with_mu:
                row.append(repr(float(dataset.mu0[i])))
                row.append(repr(float(dataset.mu1[i])))
            writer.writerow(row)


def load_csv(path) -> Dataset:
    """Read a dataset written in the x0..x{p-1},t,y[,mu0,mu1] layout.

    All malformed rows are collected and reported together with their
    1-based physical line numbers (the header is line 1).
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        n_x = sum(1 for h in header if h.startswith("x"))
        with_mu = "mu0" in header
        expected = csv_header(n_x, with_mu)
        if header != expected or n_x == 0:
            raise IngestionError(
                f"{path}: header {header!r} does not match the expected layout "
                f"x0..x{{p-1}},t,y[,mu0,mu1]"
            )
        width = len(expected)
        rows_x, rows_t, rows_y, rows_mu0, rows_mu1 = [], [], [], [], []
        bad: list[tuple[int, str]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                bad.append((line_no, f"expected {width} fields, got {len(row)}"))
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                bad.append((line_no, "non-numeric field"))
                continue
            if not np.isfinite(values).all():
                bad.append((line_no, "non-finite field"))
                continue
            t_val = values[n_x]
            if t_val not in (0.0, 1.0):
                bad.append((line_no, f"t must be 0 or 1, got {row[n_x]}"))
                continue
            rows_x.append(values[:n_x])
            rows_t.append(int(t_val))
            rows_y.append(values[n_x + 1])
            if with_mu:
                rows_mu0.append(values[n_x + 2])
                rows_mu1.append(values[n_x + 3])
    if bad:
        details = "; ".join(f"line {ln}: {msg}" for ln, msg in bad)
        raise IngestionError(f"{path}: {details}", lines=[ln for ln, _ in bad])
    if not rows_x:
        raise IngestionError(f"{path}: no data rows")
    return Dataset(
        X=np.asarray(rows_x, dtype=np.float64),
        t=np.asarray(rows_t, dtype=np.int64),
        y=np.asarray(rows_y, dtype=np.float64),
        mu0=np.asarray(rows_mu0, dtype=np.float64) if with_mu else None,
        mu1=np.asarray(rows_mu1, dtype=np.float64) if with_mu else None,
    )


# --- splitting --------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Named split proportions.  They must be nonnegative and sum to 1."""

    train: float
    validation: float
    test: float
    seed: int = 0

    def __post_init__(self):
        for name in ("train", "validation", "test"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} proportion must be >= 0")
        total = self.train + self.validation + self.test
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"proportions must sum to 1, got {total}")


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def split(dataset: Dataset, spec: SplitSpec) -> SplitIndices:
    """Disjoint, exhaustive row split with largest-remainder rounding.

    Counts start at floor(n * proportion); leftover rows go to the splits
    with the largest fractional parts, ties resolved in train, validation,
    test order.  A split with positive proportion always gets at least one
    row (n permitting).  Rows are assigned by a seeded permutation and each
    index set is returned sorted.
    """
    n = dataset.n
    props = [spec.train, spec.validation, spec.test]
    raw = [n * q for q in props]
    counts = [int(np.floor(r)) for r in raw]
    rem = n - sum(counts)
    order = sorted(range(3), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in range(rem):
        counts[order[i % 3]] += 1
    for i, q in enumerate(props):
        if q > 0 and counts[i] == 0:
            donor = int(np.argmax(counts))
            if counts[donor] <= 1:
                raise ConfigError(f"n={n} is too small for proportions {props}")
            counts[donor] -= 1
            counts[i] += 1
    perm = np.random.default_rng(spec.seed).permutation(n)
    a, b = counts[0], counts[0] + counts[1]
    return SplitIndices(
        train=np.sort(perm[:a]),
        validation=np.sort(perm[a:b]),
        test=np.sort(perm[b:]),
    )
