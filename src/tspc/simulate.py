"""Seeded generators for the four benchmark dynamics and their ground truth.

All four processes share one 4-variable motif: variables 1 and 2 drive
variable 3 and variable 3 drives variable 4, always with a one-step lag (the
recurrent network adds self-influence through its leak term).  Every
generator draws from the portable counter-based stream in tspc.rng, so a
config reproduces its data bit for bit on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix
from .graphs import RolledGraph
from .rng import make_generator

__all__ = [
    "PARADIGMS",
    "SimConfig",
    "gen_linear_var",
    "gen_nonlinear_var",
    "gen_contemporaneous_varma",
    "gen_ctrnn",
    "generate",
    "ground_truth",
]

PARADIGMS = (
    "LinearGaussianVAR",
    "NonlinearNonGaussianVAR",
    "ContemporaneousVARMA",
    "CTRNN",
)

_MOTIF = frozenset({(0, 2), (1, 2), (2, 3)})
_SELF_LOOPS = frozenset({(v, v) for v in range(4)})

# CTRNN settings: Euler step, sampling gap and unit time constant in
# milliseconds, mean of the input drive, and the weights w_13 = w_23 =
# w_34 = 10, where _CTRNN_WEIGHTS[i, j] scales presynaptic i into
# postsynaptic j.
_CTRNN_DT = 0.1
_CTRNN_SAMPLE_GAP = math.e
_CTRNN_TIME_CONSTANT = 10.0
_CTRNN_INPUT_MEAN = 1.0
_CTRNN_WEIGHTS = np.array([
    [0.0, 0.0, 10.0, 0.0],
    [0.0, 0.0, 10.0, 0.0],
    [0.0, 0.0, 0.0, 10.0],
    [0.0, 0.0, 0.0, 0.0],
])


@dataclass(frozen=True)
class SimConfig:
    """Which process, how noisy, how long, and from which stream.

    n counts output rows for the three discrete processes; for CTRNN it is
    the total duration in milliseconds (rows = floor(n / e) samples).  eta
    may be zero to realize the noise-free limits.
    """

    paradigm: str
    eta: float = 1.0
    n: int = 1000
    seed: int = 0
    burn_in: int = 0

    def __post_init__(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}")
        if not self.eta >= 0.0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.rows < 2:
            unit = " ms, at one CTRNN sample per e ms," if self.paradigm == "CTRNN" else ""
            raise ValueError(
                f"n={self.n}{unit} is too short: it gives {self.rows} rows, need at least 2"
            )
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be nonnegative, got {self.burn_in}")

    @property
    def rows(self) -> int:
        """Rows the generator returns: n, or floor(n / e) for CTRNN."""
        if self.paradigm == "CTRNN":
            return math.floor(self.n / _CTRNN_SAMPLE_GAP)
        return self.n


def gen_linear_var(cfg: SimConfig) -> DataMatrix:
    """Linear Gaussian recursion with constant drives on variables 1 and 2.

    X_t1 = 1 + e_t1, X_t2 = -1 + e_t2, X_t3 = 2 X_(t-1)1 + X_(t-1)2 + e_t3,
    X_t4 = 2 X_(t-1)3 + e_t4, all noise N(0, eta^2), start N(0, eta^2).
    """
    rng = make_generator(cfg.seed)
    total = cfg.n + cfg.burn_in
    state = rng.normal(0.0, cfg.eta, size=4)
    eps = rng.normal(0.0, cfg.eta, size=(total, 4))
    out = np.empty((total, 4), dtype=np.float64)
    out[:, 0] = 1.0 + eps[:, 0]
    out[:, 1] = -1.0 + eps[:, 1]
    out[:, 2] = 2.0 * _lagged(out[:, 0], state[0]) + _lagged(out[:, 1], state[1]) + eps[:, 2]
    out[:, 3] = 2.0 * _lagged(out[:, 2], state[2]) + eps[:, 3]
    return DataMatrix(out[cfg.burn_in:])


def gen_nonlinear_var(cfg: SimConfig) -> DataMatrix:
    """Bounded nonlinear recursion with uniform noise on (0, eta).

    X_t1, X_t2 ~ U(0, eta), X_t3 = 4 sin(X_(t-1)1) + 3 cos(X_(t-1)2) + U(0, eta),
    X_t4 = 2 sin(X_(t-1)3) + U(0, eta).
    """
    rng = make_generator(cfg.seed)
    total = cfg.n + cfg.burn_in
    state = rng.uniform(0.0, cfg.eta, size=4)
    noise = rng.uniform(0.0, cfg.eta, size=(total, 4))
    out = np.empty((total, 4), dtype=np.float64)
    out[:, :2] = noise[:, :2]
    out[:, 2] = (4.0 * _each(math.sin, _lagged(out[:, 0], state[0]))
                 + 3.0 * _each(math.cos, _lagged(out[:, 1], state[1])) + noise[:, 2])
    out[:, 3] = 2.0 * _each(math.sin, _lagged(out[:, 2], state[2])) + noise[:, 3]
    return DataMatrix(out[cfg.burn_in:])


# Both recursions are feed-forward across columns (3 reads the previous row
# of 1 and 2, 4 the previous row of 3), so each column is computed over the
# whole series in turn, with the per-row operations in the per-row order.
def _lagged(column: np.ndarray, start: float) -> np.ndarray:
    """The previous row's value of column at every row, start before the first."""
    return np.concatenate(([start], column[:-1]))


def _each(fn, values: np.ndarray) -> np.ndarray:
    """fn (math.sin or math.cos) of every value; np.sin and np.cos need not give its bits."""
    return np.fromiter(map(fn, values.tolist()), dtype=np.float64, count=len(values))


_VARMA_C = np.array([1.0, -1.0, 1.0, 2.0])
_VARMA_A = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [2.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 2.0, 0.0],
])
_VARMA_B = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [2.0, 1.0, 0.0, 0.0],
])
_VARMA_M = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [2.0, 1.0, 1.0, 0.0],
    [2.0, 1.0, 1.0, 1.0],
])


def gen_contemporaneous_varma(cfg: SimConfig) -> DataMatrix:
    """Moving-average recursion whose innovation mixes into several variables
    at the same time step: X_t = c + A X_(t-1) + B e_(t-1) + M e_t.
    """
    rng = make_generator(cfg.seed)
    total = cfg.n + cfg.burn_in
    state = rng.normal(0.0, cfg.eta, size=4)
    eps = rng.normal(0.0, cfg.eta, size=(total + 1, 4))
    out = np.empty((total, 4), dtype=np.float64)
    for t in range(total):
        row = _VARMA_C + _VARMA_A @ state + _VARMA_B @ eps[t] + _VARMA_M @ eps[t + 1]
        out[t] = row
        state = row
    return DataMatrix(out[cfg.burn_in:])


def gen_ctrnn(cfg: SimConfig) -> DataMatrix:
    """Forward-Euler integration of a 4-unit firing-rate network.

    tau_j du_j/dt = -u_j + sum_i w_ij sigma(u_i) + I_j(t) with logistic
    sigma, connection weights w_13 = w_23 = w_34 = 10 (zero elsewhere),
    tau_j = 10 ms, noisy drive I_j ~ N(1, eta^2) redrawn each 0.1 ms Euler
    step, zero initial state.  cfg.n is the duration in milliseconds; rows
    are the states nearest the grid times k * e for k = 1 .. cfg.rows.
    burn_in extends the leading duration that is simulated but not sampled.
    """
    dt = _CTRNN_DT
    rng = make_generator(cfg.seed)
    skip_steps = int(round(cfg.burn_in / dt))
    steps = int(round(cfg.n / dt)) + skip_steps
    drive = rng.normal(_CTRNN_INPUT_MEAN, cfg.eta, size=(steps, 4))
    traj = np.empty((steps + 1, 4), dtype=np.float64)
    traj[0] = 0.0
    u = traj[0]
    for t in range(steps):
        sigma = 1.0 / (1.0 + np.exp(-u))
        du = (-u + sigma @ _CTRNN_WEIGHTS + drive[t]) * (dt / _CTRNN_TIME_CONSTANT)
        u = u + du
        traj[t + 1] = u
    idx = [skip_steps + int(round(k * _CTRNN_SAMPLE_GAP / dt)) for k in range(1, cfg.rows + 1)]
    return DataMatrix(traj[idx])


def generate(cfg: SimConfig) -> DataMatrix:
    """Dispatch on cfg.paradigm with each generator's default settings."""
    if cfg.paradigm == "LinearGaussianVAR":
        return gen_linear_var(cfg)
    if cfg.paradigm == "NonlinearNonGaussianVAR":
        return gen_nonlinear_var(cfg)
    if cfg.paradigm == "ContemporaneousVARMA":
        return gen_contemporaneous_varma(cfg)
    return gen_ctrnn(cfg)


def ground_truth(paradigm: str) -> RolledGraph:
    """The rolled graph each generator realizes.

    The recurrent network's units also depend on their own past, so its
    truth adds the four self-loops.
    """
    if paradigm not in PARADIGMS:
        raise ValueError(f"paradigm must be one of {PARADIGMS}, got {paradigm!r}")
    if paradigm == "CTRNN":
        return RolledGraph(4, _MOTIF | _SELF_LOOPS)
    return RolledGraph(4, _MOTIF)
