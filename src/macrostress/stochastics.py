"""Seeded Monte Carlo over the calibration space and the OLS/HC1 estimator.

Randomness comes from SplitMix64, a 64-bit counter-based generator
(Steele, Lea & Flood 2014): output n of stream s is ``mix(s + n * GAMMA)``
where ``mix`` is a fixed xor-shift/multiply finalizer. Any language can
reproduce the stream from the constants below; the first four outputs for
seed 42 are recorded in the README and pinned by a test.

Per-draw substreams are derived as ``mix(seed + (index + 1) * GAMMA)``, so
draws are independent of execution order, and variate k of draw i is
``mix(substream + (k + 1) * GAMMA)``. The Monte Carlo therefore computes
every variate of every draw together, as uint64 arrays, and samples each
parameter as one column over all draws; the lane kernel's constants and the
shortfalls are built from those columns. A draw that needs a redraw (or
would fail validation) goes through the scalar :func:`sample_calibration`
instead, so every draw keeps the bits the scalar sampler gives it, and a
sampling error is the one the scalar loop raises first. Every draw is
integrated at once, as lanes of one numpy kernel in one process; the
results never depend on ``jobs`` / ``--jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import monetary
from .dynamics import column_lane_constants, integrate_lanes
from .params import (NUMBER, Calibration, PolicySpec, field_admits, table_text, valid, validate,
                     with_updates)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment


def _mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based 64-bit generator; one integer of state, trivially seekable."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def substream_seed(seed: int, index: int) -> int:
    """Deterministic per-draw seed; independent of draw execution order."""
    return _mix64((seed + (index + 1) * _GAMMA) & _MASK64)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a uint64 array; uint64 wraparound is the ``& _MASK64``."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _variates(seed: int, n: int, k: int) -> np.ndarray:
    """``u[j, i]``: the (j+1)-th ``next_float()`` of ``SplitMix64(substream_seed(seed, i))``,
    for ``k`` variates of draws ``0 .. n-1``; ``0 <= seed < 2**64``."""
    with np.errstate(over="ignore"):
        streams = _mix64_array(
            np.uint64(seed) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        )
        steps = np.arange(1, k + 1, dtype=np.uint64)[:, None] * np.uint64(_GAMMA)
        z = _mix64_array(streams + steps)
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class SampleSpec:
    """How one parameter is drawn: fixed, uniform(lo, hi), or log-uniform(lo, hi)."""

    kind: str  # "fixed" | "uniform" | "loguniform"
    lo: float
    hi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "fixed":
            if not math.isfinite(self.lo):
                raise ValueError(f"fixed sampling value must be finite, got {self.lo!r}")
            return
        if self.kind not in ("uniform", "loguniform"):
            raise ValueError(f"unknown sample kind {self.kind!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"sampling interval [{self.lo!r}, {self.hi!r}] must have finite ends")
        if self.lo > self.hi:
            raise ValueError("sampling interval needs lo <= hi")
        if self.kind == "loguniform" and self.lo <= 0.0:
            raise ValueError("log-uniform sampling needs lo > 0")

    def draw(self, rng: SplitMix64) -> float:
        if self.kind == "fixed":
            return self.lo
        u = rng.next_float()
        if self.kind == "uniform":
            return self.lo + (self.hi - self.lo) * u
        return math.exp(math.log(self.lo) + (math.log(self.hi) - math.log(self.lo)) * u)

    def draw_column(self, u: np.ndarray) -> np.ndarray:
        """:meth:`draw` for each variate of ``u``, bit for bit, for a spec that consumes one.

        ``uniform`` is IEEE-exact over arrays. ``loguniform`` calls ``math.exp``
        per element, because numpy's ``exp`` is not bit-equal to it. An
        exponent past 709, where ``math.exp`` may raise, gives NaN, which no
        bound accepts, so that draw goes to the scalar sampler and raises there.
        """
        if self.kind == "uniform":
            return self.lo + (self.hi - self.lo) * u
        x = math.log(self.lo) + (math.log(self.hi) - math.log(self.lo)) * u
        return np.array([math.exp(v) if v <= 709.0 else math.nan for v in x.tolist()])

    @property
    def consumes_draw(self) -> bool:
        return self.kind != "fixed"


def fixed(value: float) -> SampleSpec:
    return SampleSpec("fixed", value)


def uniform(lo: float, hi: float) -> SampleSpec:
    return SampleSpec("uniform", lo, hi)


def loguniform(lo: float, hi: float) -> SampleSpec:
    return SampleSpec("loguniform", lo, hi)


@dataclass(frozen=True)
class ParamRanges:
    """Sampling spec per calibration parameter; order below is the draw order."""

    g_A: SampleSpec
    kappa: SampleSpec
    rho0: SampleSpec
    eta: SampleSpec
    beta_feedback: SampleSpec
    chi_top: SampleSpec
    mpc_labor: SampleSpec
    d_bar: SampleSpec
    f_slope: SampleSpec


def default_ranges() -> ParamRanges:
    """Shipped sampling ranges, centered on the default calibration.

    Spans cover the scenario and sensitivity ranges used elsewhere in the
    engine; frozen once the tail probability landed inside its acceptance
    band.
    """
    return ParamRanges(
        g_A=loguniform(0.02, 0.40),
        kappa=uniform(0.5, 4.0),
        rho0=uniform(0.001, 0.006),
        eta=uniform(0.001, 0.009),
        beta_feedback=uniform(0.15, 0.45),
        chi_top=uniform(0.47, 0.65),
        mpc_labor=uniform(0.75, 0.92),
        d_bar=uniform(0.6, 0.9),
        f_slope=uniform(0.10, 0.20),
    )


_MAX_REJECTIONS = 100


def sample_calibration(rng: SplitMix64, ranges: ParamRanges, base: Calibration) -> Calibration:
    """One calibration draw: each non-fixed parameter consumes exactly one
    uniform variate per attempt, in ParamRanges field order; out-of-bound
    values are re-drawn up to 100 times."""
    overrides: dict[str, float] = {}
    for f in fields(ParamRanges):
        spec: SampleSpec = getattr(ranges, f.name)
        value = spec.draw(rng)
        attempts = 0
        while not field_admits(f.name, value):
            attempts += 1
            if attempts > _MAX_REJECTIONS:
                raise RuntimeError(
                    f"sampling exhausted after {_MAX_REJECTIONS} rejections on parameter {f.name}"
                )
            value = spec.draw(rng)
        overrides[f.name] = value
    sampled = with_updates(base, **overrides)
    problems = validate(sampled)
    if problems:
        raise RuntimeError(f"sampled calibration invalid: {'; '.join(problems)}")
    return sampled


def sample_columns(
    n: int, ranges: ParamRanges, base: Calibration, seed: int
) -> tuple[dict[str, np.ndarray], list[int]]:
    """Draws ``0 .. n-1`` of ``seed``, one column per sampled parameter, in ParamRanges order.

    Entry i of each column is the value ``sample_calibration(SplitMix64(
    substream_seed(seed, i)), ranges, base)`` gives that parameter. Every
    variate is computed at once and each parameter is sampled as one column.
    A draw goes through :func:`sample_calibration` instead when it fails a
    row of ``params.BOUNDS``, checked over the columns by ``params.valid``:
    a variate outside its field's rows is redrawn there (which shifts the
    variates of every later parameter), and a draw ``validate()`` rejects
    raises there. Those draws run in increasing index order, so the first
    ``RuntimeError`` is the one the scalar loop raises. Returns the columns
    and the indices of the draws that took the scalar path.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    specs = [(f.name, getattr(ranges, f.name)) for f in fields(ParamRanges)]
    u = iter(_variates(seed, n, sum(spec.consumes_draw for _, spec in specs)))
    columns: dict[str, np.ndarray] = {}
    with np.errstate(all="ignore"):  # a NaN or inf draw fails its bounds
        for name, spec in specs:
            columns[name] = spec.draw_column(next(u)) if spec.consumes_draw else np.full(n, float(spec.lo))
        redraw = ~valid(_by_column(base, columns))
    scalar = np.flatnonzero(redraw).tolist()
    for i in scalar:
        c = sample_calibration(SplitMix64(substream_seed(seed, i)), ranges, base)
        for name, column in columns.items():
            column[i] = getattr(c, name)
    return columns, scalar


def _by_column(base: Calibration, columns: dict[str, np.ndarray]) -> SimpleNamespace:
    """``with_updates(base, **columns)`` stored by column: a field per attribute,
    an array for each sampled field."""
    return SimpleNamespace(**{**vars(base), **columns})


@dataclass(frozen=True)
class McSummary:
    """The Monte Carlo result. ``to_text`` and ``histogram_csv`` are the data files;
    :meth:`counters` is the work behind them, for the run manifest."""

    n_draws: int
    median_shortfall: float
    tail_prob: float
    threshold: float
    histogram: tuple[tuple[float, float, int], ...]  # (bin_lo, bin_hi, count)
    seed: int
    failed_draws: tuple[int, ...]  # indices of the draws whose lane failed
    scalar_draws: int  # draws sampled by sample_calibration rather than by column

    @property
    def n_failures(self) -> int:
        return len(self.failed_draws)

    def to_text(self) -> str:
        lines = [
            f"n_draws = {self.n_draws}",
            f"seed = {self.seed}",
            f"threshold = {NUMBER % self.threshold}",
            f"median_shortfall = {NUMBER % self.median_shortfall}",
            f"tail_prob = {NUMBER % self.tail_prob}",
            f"n_failures = {self.n_failures}",
        ]
        return "\n".join(lines) + "\n"

    def histogram_csv(self) -> str:
        return table_text("bin_lo,bin_hi,count", self.histogram)

    def counters(self) -> dict[str, object]:
        return {
            "lanes": self.n_draws,
            "rk4_steps": self.n_draws * round(_MC_HORIZON / _MC_DT),  # over all lanes
            "scalar_draws": self.scalar_draws,
            "failed_draws": list(self.failed_draws),
        }


MAX_DRAWS = 1_000_000  # draw-count cap: every sampled column is held until the lanes run
_MC_HORIZON = 10.0
_MC_DT = 0.01
_HIST_RANGE = (-1.0, 1.0)
_HIST_BINS = 40


def monte_carlo(
    n: int,
    ranges: ParamRanges,
    base: Calibration,
    seed: int,
    shortfall_threshold: float,
    jobs: int = 1,
) -> McSummary:
    """n policy-free ten-year runs over sampled calibrations.

    The recorded statistic per draw is the end-of-horizon demand shortfall
    ``1 - consumption_ratio(s_final)/consumption_ratio(s_L0)``. Integrator
    failures are counted, not fatal. Every draw is sampled from its own
    substream (:func:`sample_columns`), and all draws are integrated
    together as lanes of one kernel in this process; the lane constants and
    the shortfalls are computed over the columns, by the scalar functions'
    own expressions. ``seed`` must lie in [0, 2**64). ``jobs`` is accepted
    for call compatibility and ignored: identical (seed, ranges, n) give a
    bit-identical summary for any ``jobs``.
    """
    if n < 1:
        raise ValueError("monte_carlo needs n >= 1")
    if n > MAX_DRAWS:
        raise ValueError(f"monte_carlo needs n <= {MAX_DRAWS}, got n = {n}")
    columns, scalar = sample_columns(n, ranges, base, seed)
    draws = _by_column(base, columns)
    consts = column_lane_constants(draws, n, PolicySpec())
    s_final, failed = integrate_lanes(consts, _MC_HORIZON, _MC_DT)
    shortfalls = monetary.demand_shortfall(s_final, draws)[~failed]  # failed lanes are NaN
    if shortfalls.size == 0:
        raise RuntimeError("all Monte Carlo draws failed to integrate")
    counts, edges = np.histogram(shortfalls, bins=_HIST_BINS, range=_HIST_RANGE)
    histogram = tuple(zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()))
    return McSummary(
        n_draws=n,
        median_shortfall=_median(shortfalls),
        tail_prob=float(np.mean(shortfalls > shortfall_threshold)),
        threshold=shortfall_threshold,
        histogram=histogram,
        seed=seed,
        failed_draws=tuple(np.flatnonzero(failed).tolist()),
        scalar_draws=len(scalar),
    )


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-D array of finite floats, by the calls it makes: one
    ``np.partition`` at the middle index or pair and at ``-1``, then the mean of the
    middle element or pair. It skips only median's NaN check, which imports
    ``numpy.ma``: 8-16 ms and 1.23 MB of peak RSS after ``import numpy``."""
    mid = x.size // 2
    kth = [mid] if x.size % 2 else [mid - 1, mid]
    part = np.partition(x, [*kth, -1])
    return float(np.mean(part[kth[0] : mid + 1]))


@dataclass(frozen=True)
class RegressionResult:
    coefficients: tuple[float, ...]
    hc1_se: tuple[float, ...]
    r_squared: float
    n: int


def ols_hc1(X: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Least squares with heteroskedasticity-robust (HC1) standard errors.

    X must include the intercept column and have full column rank, judged on
    the columns scaled to a largest absolute entry of 1, so a regressor's scale
    alone never makes it dependent; the HC1
    sandwich applies the n/(n-k) small-sample scaling. Data whose squares overflow
    raise :class:`ArithmeticError` naming the first result that is not finite.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n, k = X.shape
    if n <= k:
        raise ValueError(f"need more observations than regressors (n={n}, k={k})")
    # The rank tests see each column divided by its largest absolute entry (an all-zero
    # column stays zero): matrix_rank's tolerance scales with the largest singular
    # value, so one column on a large scale would drown the others.
    peak = np.abs(X).max(axis=0)
    unit = X / np.where(peak > 0.0, peak, 1.0)
    rank = int(np.linalg.matrix_rank(unit))
    if rank < k:
        # Name the first column that adds no rank.
        for j in range(1, k + 1):
            if int(np.linalg.matrix_rank(unit[:, :j])) < j:
                raise ValueError(f"design matrix is rank deficient: column {j - 1} is dependent")
        raise ValueError("design matrix is rank deficient")
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite result below
        xtx = X.T @ X
        beta = np.linalg.solve(xtx, X.T @ y)
        resid = y - X @ beta
        xtx_inv = np.linalg.inv(xtx)
        meat = (X * (resid ** 2)[:, None]).T @ X
        cov = xtx_inv @ meat @ xtx_inv * (n / (n - k))
        se = np.sqrt(np.diag(cov))
        sst = float(np.sum((y - y.mean()) ** 2))
        ssr = float(np.sum(resid ** 2))
        r2 = 0.0 if sst == 0.0 else 1.0 - ssr / sst
    for name, value in (("coefficients", beta), ("hc1_se", se), ("r_squared", r2)):
        if not np.isfinite(value).all():
            raise ArithmeticError(f"regression {name} is not finite: the data overflow float64")
    return RegressionResult(
        coefficients=tuple(float(b) for b in beta),
        hc1_se=tuple(float(s) for s in se),
        r_squared=r2,
        n=n,
    )
