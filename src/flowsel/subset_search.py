"""Feature-subset search: bat algorithm, aquila optimizer, exhaustive oracle.

All searchers share one contract: candidate positions live in [-1, 1]^k,
coordinate i selects feature i when it is >= 0.5, and fitness is the
correlation-based merit of the decoded subset.  Runs are deterministic
given the seed: per-epoch draws come from a counter-style stream keyed by
(seed, epoch), so the numbers a bat consumes depend only on its index and
the epoch, never on scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import artifacts
from .correlation import CfsScore, CorrelationMatrix, MeritEvaluator, cfs_merit
from .errors import DataError

SELECT_THRESHOLD = 0.5


@dataclass(frozen=True)
class FeatureSubset:
    """A set of selected feature indices with optional attached scores."""

    indices: tuple[int, ...]
    cfs: CfsScore | None = None
    ig: float | None = None

    def __post_init__(self):
        for a, b in zip(self.indices, self.indices[1:]):
            if b <= a:
                raise ValueError("subset indices must be strictly increasing")
        if self.indices and self.indices[0] < 0:
            raise ValueError("subset indices must be nonnegative")

    @property
    def k(self) -> int:
        return len(self.indices)

    def mask(self, n_features: int) -> np.ndarray:
        out = np.zeros(n_features, dtype=bool)
        out[list(self.indices)] = True
        return out


@dataclass(frozen=True)
class SearchResult:
    best: FeatureSubset
    best_merit: float
    merit_trace: tuple[float, ...]
    evaluations: int
    elapsed: float
    method: str
    seed: int


def decode_mask(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) >= SELECT_THRESHOLD


def decode(x) -> FeatureSubset:
    """Position vector to feature subset: coordinate >= 0.5 selects."""
    return FeatureSubset(tuple(int(i) for i in np.flatnonzero(decode_mask(x))))


def _epoch_rng(seed: int, epoch: int, stream: int) -> np.random.Generator:
    # Philox keyed by (seed, stream, epoch): any epoch's draw block can be
    # regenerated without replaying the ones before it.
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream, epoch)))
    )


# ---------------------------------------------------------------------------
# bat algorithm


# Fixed swarm constants: frequencies are drawn from [0, F_MAX] and initial
# loudness from LOUDNESS_INIT.  The local walk is Yang's eq. 5 (NICSO 2010),
# x_new = x_best + eps * A with eps in [-WALK_SCALE, WALK_SCALE] = [-1, 1];
# much smaller scales never carry a coordinate across the 0.5 decode
# threshold, so the walk re-scores the incumbent subset.
F_MAX = 0.1
LOUDNESS_INIT = (1.0, 2.0)
WALK_SCALE = 1.0


@dataclass(frozen=True)
class BatConfig:
    """Swarm parameters; the defaults are the reference operating point."""

    n: int = 100
    t_max: int = 1000
    alpha: float = 0.95
    gamma: float = 0.95
    canonical_pulse: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one bat, got n={self.n}")
        if self.t_max < 0:
            raise ValueError(f"t_max must be nonnegative, got {self.t_max}")
        if not 0 < self.alpha <= 1 or not 0 < self.gamma <= 1:
            raise ValueError(
                f"alpha and gamma must be in (0, 1], got {self.alpha} and {self.gamma}")


@dataclass
class BatPopulation:
    """Mutable swarm state.  ``pulse_init`` keeps each bat's r0 so the pulse
    schedule can be re-derived at any epoch."""

    x: np.ndarray
    v: np.ndarray
    freq: np.ndarray
    loudness: np.ndarray
    pulse: np.ndarray
    pulse_init: np.ndarray
    best_x: np.ndarray
    best_merit: float
    accept_counts: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.accept_counts is None:
            self.accept_counts = np.zeros(self.x.shape[0], dtype=np.int64)


def bat_init(config: BatConfig, n_features: int) -> BatPopulation:
    """Draw the initial swarm: x ~ U(0,1), v ~ U(-1,1), f ~ U(0, f_max),
    loudness ~ U(1,2), pulse r0 ~ U(0,1).  The incumbent starts empty with
    merit 0; the first scoring sweep claims it."""
    if n_features < 1:
        raise ValueError("need at least one feature")
    rng = np.random.default_rng(config.seed)
    x = rng.uniform(0.0, 1.0, (config.n, n_features))
    v = rng.uniform(-1.0, 1.0, (config.n, n_features))
    freq = rng.uniform(0.0, F_MAX, config.n)
    loudness = rng.uniform(*LOUDNESS_INIT, config.n)
    pulse_init = rng.uniform(0.0, 1.0, config.n)
    return BatPopulation(
        x=x,
        v=v,
        freq=freq,
        loudness=loudness,
        pulse=pulse_init.copy(),
        pulse_init=pulse_init,
        best_x=np.zeros(n_features),
        best_merit=0.0,
    )


def seed_incumbent(pop: BatPopulation, evaluator: MeritEvaluator) -> None:
    """Score every bat once and adopt the best strict improvement."""
    merits = evaluator.merits_of_masks(decode_mask(pop.x))
    evaluator.evaluations += len(merits)
    i = int(np.argmax(merits))
    if merits[i] > pop.best_merit:
        pop.best_merit = float(merits[i])
        pop.best_x = pop.x[i].copy()


def _pulse_value(r0: float, epoch: int, config: BatConfig) -> float:
    # The decay exponent is gamma raised to the epoch, so late acceptances
    # push the pulse rate back toward zero.  canonical_pulse restores the
    # textbook gamma * epoch product instead.
    if config.canonical_pulse:
        exponent = config.gamma * epoch
    else:
        exponent = config.gamma**epoch
    return r0 * (1.0 - math.exp(-exponent))


def bat_epoch(pop: BatPopulation, evaluator: MeritEvaluator, config: BatConfig, epoch: int) -> BatPopulation:
    """One full pass over the swarm, bats updated in index order.

    The incumbent may move mid-epoch; later bats chase the moved target.
    Every bat's draws for the epoch are fixed up front, whichever branch it
    takes.

    A bat's pulse and loudness change only on its own acceptance, after its
    move, so its branch, walk step and acceptance gate are known at the
    start of the epoch; only the incumbent moves under it.  The pass is
    therefore scored in blocks: bats s..n-1 all move against the current
    incumbent, the moves up to and including the first acceptance are kept,
    and the rest are redone against the new incumbent.  The result is the
    bat-by-bat pass, bit for bit.
    """
    n, _ = pop.x.shape
    rng = _epoch_rng(config.seed, epoch, stream=0)
    pop.freq[:] = rng.uniform(0.0, F_MAX, n)
    gate_walk = rng.uniform(0.0, 1.0, n)
    walk_steps = rng.uniform(-WALK_SCALE, WALK_SCALE, pop.x.shape)
    gate_accept = rng.uniform(0.0, 1.0, n)

    cruise = (pop.pulse >= gate_walk)[:, None]
    # local walk around the incumbent (eq. 5): eps drawn from
    # [-WALK_SCALE, WALK_SCALE], scaled by each bat's loudness
    walk = walk_steps * pop.loudness[:, None]
    may_accept = pop.loudness > gate_accept
    s = 0
    while s < n:
        v = pop.v[s:] + (pop.x[s:] - pop.best_x) * pop.freq[s:, None]
        np.clip(v, -1.0, 1.0, out=v)
        # cruise along the velocity, or walk
        x = np.where(cruise[s:], pop.x[s:] + v, pop.best_x + walk[s:])
        np.clip(x, -1.0, 1.0, out=x)
        merits = evaluator.merits_of_masks(x >= SELECT_THRESHOLD)
        accepted = np.flatnonzero(may_accept[s:] & (merits > pop.best_merit))
        kept = n - s if accepted.size == 0 else int(accepted[0]) + 1
        pop.v[s:s + kept] = v[:kept]
        pop.x[s:s + kept] = x[:kept]
        evaluator.evaluations += kept
        s += kept
        if accepted.size:
            i = s - 1
            pop.best_x = x[kept - 1].copy()
            pop.best_merit = float(merits[kept - 1])
            pop.accept_counts[i] += 1
            pop.pulse[i] = _pulse_value(pop.pulse_init[i], epoch, config)
            pop.loudness[i] = config.alpha * pop.loudness[i]
    return pop


def _search_result(corr: CorrelationMatrix, start: float, best_x, best_merit: float,
                   trace: list, evaluator: MeritEvaluator, method: str, seed: int) -> SearchResult:
    """A finished search: decode the incumbent and score it off the matrix."""
    elapsed = time.perf_counter() - start
    subset = decode(best_x)
    subset = replace(subset, cfs=cfs_merit(corr, subset.indices))
    return SearchResult(
        best=subset,
        best_merit=best_merit,
        merit_trace=tuple(trace),
        evaluations=evaluator.evaluations,
        elapsed=elapsed,
        method=method,
        seed=seed,
    )


def bat_run(corr: CorrelationMatrix, config: BatConfig) -> SearchResult:
    """Full bat search over the matrix's feature set."""
    evaluator = MeritEvaluator(corr)
    start = time.perf_counter()
    pop = bat_init(config, evaluator.n_features)
    seed_incumbent(pop, evaluator)
    trace = [pop.best_merit]
    for t in range(1, config.t_max + 1):
        bat_epoch(pop, evaluator, config, t)
        trace.append(pop.best_merit)
    return _search_result(corr, start, pop.best_x, pop.best_merit, trace, evaluator,
                          "ba", config.seed)


# ---------------------------------------------------------------------------
# aquila optimizer


# The exploitation moves' alpha and delta, and the Levy flight's exponent
# beta and step scale, at the optimizer's published values.
EXPLOIT_ALPHA = 0.1
EXPLOIT_DELTA = 0.1
LEVY_BETA = 1.5
LEVY_SCALE = 0.01


@dataclass(frozen=True)
class AquilaConfig:
    """Population parameters for the aquila search.

    The internals follow the optimizer's original description: two
    exploration moves for the first two thirds of the epochs, two
    exploitation moves after, candidate updates kept only on improvement.
    """

    n: int = 100
    t_max: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one candidate, got n={self.n}")
        # the exploitation's quality function divides by (1 - t_max)^2
        if self.t_max < 0 or self.t_max == 1:
            raise ValueError(f"t_max must be 0 or at least 2, got {self.t_max}")


@dataclass
class AquilaPopulation:
    """Mutable population state: positions, their merits, the incumbent."""

    positions: np.ndarray
    fitness: np.ndarray
    best_x: np.ndarray
    best_merit: float


def aquila_init(config: AquilaConfig, evaluator: MeritEvaluator) -> AquilaPopulation:
    """Draw positions ~ U(-1, 1), score each once, and adopt the first best."""
    rng = np.random.default_rng(config.seed)
    positions = rng.uniform(-1.0, 1.0, (config.n, evaluator.n_features))
    fitness = evaluator.merits_of_masks(positions >= SELECT_THRESHOLD)
    evaluator.evaluations += config.n
    best_i = int(np.argmax(fitness))
    return AquilaPopulation(positions, fitness, positions[best_i].copy(), float(fitness[best_i]))


def _levy_sigma(beta: float) -> float:
    num = math.gamma(1 + beta) * math.sin(math.pi * beta / 2)
    den = math.gamma((1 + beta) / 2) * beta * 2 ** ((beta - 1) / 2)
    return (num / den) ** (1 / beta)


def _levy(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Mantegna's levy step from its two normal draws, u ~ N(0, sigma^2) and
    # v ~ N(0, 1); rows that drew none hold u = 0, v = 1 and step 0
    return LEVY_SCALE * u / np.abs(v) ** (1 / LEVY_BETA)


def _exploration(rng: np.random.Generator, pop: AquilaPopulation, config: AquilaConfig,
                 t: int, mean_x: np.ndarray):
    """Replay an exploration epoch's draws, candidate by candidate.

    Returns each candidate's peer (its own row unless it flies off a random
    peer) and the function giving the moves of candidates s.. against the
    current incumbent and positions.
    """
    n, k = pop.positions.shape
    sigma = _levy_sigma(LEVY_BETA)
    expand = np.zeros(n, dtype=bool)
    peer = np.arange(n)
    r = np.zeros(n)
    radius = np.zeros(n)
    u = np.zeros((n, k))
    v = np.ones((n, k))
    for i in range(n):
        if rng.random() < 0.5:
            expand[i] = True
            r[i] = rng.random()
        else:
            peer[i] = rng.integers(n)
            radius[i] = 1.0 + 19.0 * rng.random()
            u[i] = rng.normal(0.0, sigma, k)
            v[i] = rng.normal(0.0, 1.0, k)
            r[i] = rng.random()
    levy = _levy(u, v)
    # log-spiral offset of the contour flight: (y - x) * r on the spiral
    # of radius r1 + 0.00565 d at angle 1.5 pi - 0.005 d, d = 1..k
    d1 = np.arange(1, k + 1, dtype=np.float64)
    theta = -0.005 * d1 + 1.5 * math.pi
    rho = radius[:, None] + 0.00565 * d1
    spiral = (rho * np.cos(theta) - rho * np.sin(theta)) * r[:, None]
    shrink = 1.0 - t / config.t_max

    def moves(s: int) -> np.ndarray:
        best = pop.best_x
        return np.where(
            expand[s:, None],
            # expanded exploration: sink toward the incumbent, offset by the
            # population mean
            best * shrink + (mean_x - best * r[s:, None]),
            # narrowed exploration: levy flight around the incumbent plus a
            # random peer and a spiral offset
            best * levy[s:] + pop.positions[peer[s:]] + spiral[s:],
        )

    return peer, moves


def _exploitation(rng: np.random.Generator, pop: AquilaPopulation, config: AquilaConfig,
                  t: int, mean_x: np.ndarray):
    """Replay an exploitation epoch's draws; returns as ``_exploration``."""
    n, k = pop.positions.shape
    sigma = _levy_sigma(LEVY_BETA)
    expand = np.zeros(n, dtype=bool)
    qf = np.zeros(n)
    g1 = np.zeros(n)
    # a and b: the expanded move's two uniforms, or the narrowed move's
    # uniforms drawn before and after its levy step
    a = np.zeros(n)
    b = np.zeros(n)
    u = np.zeros((n, k))
    v = np.ones((n, k))
    for i in range(n):
        if rng.random() < 0.5:
            expand[i] = True
            a[i] = rng.random()
            b[i] = rng.random()
        else:
            qf[i] = t ** ((2.0 * rng.random() - 1.0) / (1.0 - config.t_max) ** 2)
            g1[i] = 2.0 * rng.random() - 1.0
            a[i] = rng.random()
            u[i] = rng.normal(0.0, sigma, k)
            v[i] = rng.normal(0.0, 1.0, k)
            b[i] = rng.random()
    g2 = 2.0 * (1.0 - t / config.t_max)
    offset = (2.0 * b - 1.0) * EXPLOIT_DELTA
    levy = g2 * _levy(u, v)
    tail = b * g1

    def moves(s: int) -> np.ndarray:
        best = pop.best_x
        return np.where(
            expand[s:, None],
            # expanded exploitation: shrunk incumbent/mean gap plus a
            # bounded random offset
            (best - mean_x) * EXPLOIT_ALPHA - a[s:, None] + offset[s:, None],
            # narrowed exploitation: quality-function swoop at the incumbent
            qf[s:, None] * best - g1[s:, None] * pop.positions[s:] * a[s:, None] - levy[s:]
            + tail[s:, None],
        )

    return np.arange(n), moves


def aquila_epoch(pop: AquilaPopulation, evaluator: MeritEvaluator, config: AquilaConfig,
                 t: int) -> AquilaPopulation:
    """One pass over the population, candidates moved in index order.

    A move is kept only when it improves its candidate, and a kept move
    that beats the incumbent replaces it for the candidates after it.  The
    epoch's draws are replayed first; the moves are then scored in blocks
    against the current state.  A block ends after the first candidate
    that raises the incumbent, or before the first candidate whose peer
    was replaced earlier in the same block, and the next block starts from
    there, so the result is the candidate-by-candidate pass, bit for bit.
    """
    n = pop.positions.shape[0]
    rng = _epoch_rng(config.seed, t, stream=1)
    mean_x = pop.positions.mean(axis=0)
    phase = _exploration if t <= (2.0 / 3.0) * config.t_max else _exploitation
    peer, moves = phase(rng, pop, config, t, mean_x)
    s = 0
    while s < n:
        x = np.clip(moves(s), -1.0, 1.0)
        merits = evaluator.merits_of_masks(x >= SELECT_THRESHOLD)
        improved = merits > pop.fitness[s:]
        raised = improved & (merits > pop.best_merit)
        # stale: the move read a peer that an earlier move of this block replaced
        rel = peer[s:] - s
        stale = (rel >= 0) & (rel < np.arange(n - s))
        stale[stale] = improved[rel[stale]]
        kept = n - s
        if raised.any():
            kept = int(np.argmax(raised)) + 1
        if stale[:kept].any():
            kept = int(np.argmax(stale))
        rows = np.flatnonzero(improved[:kept])
        pop.positions[s + rows] = x[rows]
        pop.fitness[s + rows] = merits[rows]
        if raised[kept - 1]:
            pop.best_merit = float(merits[kept - 1])
            pop.best_x = x[kept - 1].copy()
        evaluator.evaluations += kept
        s += kept
    return pop


def aquila_run(corr: CorrelationMatrix, config: AquilaConfig) -> SearchResult:
    """Aquila search sharing the bat searcher's decode and fitness contract."""
    evaluator = MeritEvaluator(corr)
    start = time.perf_counter()
    pop = aquila_init(config, evaluator)
    trace = [pop.best_merit]
    for t in range(1, config.t_max + 1):
        aquila_epoch(pop, evaluator, config, t)
        trace.append(pop.best_merit)
    return _search_result(corr, start, pop.best_x, pop.best_merit, trace, evaluator,
                          "ao", config.seed)


# ---------------------------------------------------------------------------
# exhaustive oracle


def brute_force_best(corr: CorrelationMatrix, max_features: int = 20) -> SearchResult:
    """Enumerate every non-empty subset and return the exact maximum.

    Shares the searchers' merit arithmetic so comparisons are bit-exact.
    Ties resolve to fewer features, then lexicographically smaller indices.
    Refuses more than ``max_features`` features (2^k blow-up).
    """
    evaluator = MeritEvaluator(corr)
    k = evaluator.n_features
    if k > max_features:
        raise ValueError(
            f"{k} features exceed the exhaustive cap of {max_features}"
        )
    start = time.perf_counter()
    best_merit = 0.0
    best_idx: tuple[int, ...] = ()
    bit_range = np.arange(k)
    for code in range(1, 1 << k):
        mask = (code >> bit_range) & 1
        merit = evaluator.merit_of_mask(mask.astype(bool))
        if merit > best_merit:
            best_merit = merit
            best_idx = tuple(int(i) for i in np.flatnonzero(mask))
        elif merit == best_merit and best_idx:
            idx = tuple(int(i) for i in np.flatnonzero(mask))
            if (len(idx), idx) < (len(best_idx), best_idx):
                best_idx = idx
    return _search_result(corr, start, FeatureSubset(best_idx).mask(k), best_merit,
                          [best_merit], evaluator, "brute", 0)


# ---------------------------------------------------------------------------
# subset files


def save_subset(subset: FeatureSubset, feature_names, path: str, method: str = "",
                seed: int | None = None, elapsed: float | None = None) -> None:
    """Write the subset's names, one a line, at ``path``, and its container
    beside it: indices, names, method, seed and elapsed seconds.  Scores are
    not stored; a reader recomputes them."""
    if subset.indices and subset.indices[-1] >= len(feature_names):
        raise DataError("subset index out of range for the given feature names")
    names = [feature_names[i] for i in subset.indices]
    artifacts.save(artifacts.container_for(path), "subset",
                   {"indices": np.array(subset.indices, dtype=np.int64)},
                   names=names, method=method, seed=seed, elapsed=elapsed)
    artifacts.write_atomic(path, "".join(f"{name}\n" for name in names))


def load_subset(path: str, feature_names) -> tuple[FeatureSubset, dict]:
    """The unscored subset save_subset wrote for ``path``, and its method,
    seed and elapsed seconds; a name that is not the feature at its index
    is an error."""
    def decode(header, arrays):
        subset = FeatureSubset(tuple(arrays["indices"].tolist()))
        for i, name in zip(subset.indices, header["names"], strict=True):
            if i >= len(feature_names) or feature_names[i] != name:
                raise ValueError(f"unknown feature name {name!r}")
        return subset, {key: header[key] for key in ("method", "seed", "elapsed")}

    return artifacts.load(artifacts.container_for(path), "subset", decode)


def save_trace(result: SearchResult, path: str) -> None:
    """Write the incumbent merit trace as (epoch, best_merit) CSV."""
    rows = "".join(f"{epoch},{merit!r}\n" for epoch, merit in enumerate(result.merit_trace))
    artifacts.write_atomic(path, "epoch,best_merit\n" + rows)
