"""Subset searchers: decode contract, swarm mechanics, exhaustive oracle.

The enumeration oracle below scores subsets straight off the matrix with
itertools, independent of the evaluator the searchers share.
"""

import itertools
import math

import numpy as np
import pytest

from flowsel.correlation import CorrelationMatrix, MeritEvaluator, cfs_merit, spearman_matrix
from flowsel.dataset import one_hot
from flowsel.errors import DataError
from flowsel.subset_search import (
    SELECT_THRESHOLD,
    AquilaConfig,
    AquilaPopulation,
    BatConfig,
    BatPopulation,
    FeatureSubset,
    _epoch_rng,
    _levy_sigma,
    _pulse_value,
    aquila_epoch,
    aquila_init,
    aquila_run,
    bat_epoch,
    bat_init,
    bat_run,
    brute_force_best,
    decode,
    decode_mask,
    load_subset,
    save_subset,
    save_trace,
    seed_incumbent,
)


def enumerate_best(corr):
    """Exhaustive search by combinations, scoring straight off the values."""
    a = np.abs(corr.values)
    b = corr.class_boundary
    n_cls = len(corr.names) - b
    best = (0.0, ())
    for k in range(1, b + 1):
        for combo in itertools.combinations(range(b), k):
            r_cf = sum(a[i, b + c] for i in combo for c in range(n_cls)) / (k * n_cls)
            if k == 1:
                r_ff = 0.0
            else:
                pairs = list(itertools.combinations(combo, 2))
                r_ff = sum(a[i, j] for i, j in pairs) / len(pairs)
            merit = k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)
            if merit > best[0]:
                best = (merit, combo)
    return best


def random_corr(rng, n_features, n_classes, rows=40):
    feats = rng.normal(size=(rows, n_features))
    labels = rng.integers(0, n_classes, rows)
    labels[:n_classes] = np.arange(n_classes)  # every class present
    cls = np.zeros((rows, n_classes))
    cls[np.arange(rows), labels] = 1.0
    return spearman_matrix(
        feats,
        cls,
        tuple(f"f{i}" for i in range(n_features)),
        tuple(f"c{i}" for i in range(n_classes)),
    )


def one_feature_matrix(r=0.6):
    v = np.array([[1.0, r], [r, 1.0]])
    return CorrelationMatrix(v, ("f", "c"), 1)


# ---------------------------------------------------------------------------
# sequential reference: the bat-by-bat and candidate-by-candidate passes
# the block-scored epochs must reproduce bit for bit


def reference_seed_incumbent(pop, evaluator):
    for i in range(pop.x.shape[0]):
        merit = evaluator.merit_of_mask(decode_mask(pop.x[i]))
        if merit > pop.best_merit:
            pop.best_merit = merit
            pop.best_x = pop.x[i].copy()


def reference_bat_epoch(pop, evaluator, config, epoch):
    n, _ = pop.x.shape
    rng = _epoch_rng(config.seed, epoch, stream=0)
    freq_draw = rng.uniform(0.0, 0.1, n)
    gate_walk = rng.uniform(0.0, 1.0, n)
    walk_steps = rng.uniform(-1.0, 1.0, pop.x.shape)
    gate_accept = rng.uniform(0.0, 1.0, n)
    for i in range(n):
        pop.freq[i] = freq_draw[i]
        v = pop.v[i] + (pop.x[i] - pop.best_x) * pop.freq[i]
        np.clip(v, -1.0, 1.0, out=v)
        pop.v[i] = v
        if pop.pulse[i] >= gate_walk[i]:
            x = pop.x[i] + v
        else:
            x = pop.best_x + walk_steps[i] * pop.loudness[i]
        np.clip(x, -1.0, 1.0, out=x)
        pop.x[i] = x
        merit = evaluator.merit_of_mask(x >= SELECT_THRESHOLD)
        if pop.loudness[i] > gate_accept[i] and merit > pop.best_merit:
            pop.best_x = x.copy()
            pop.best_merit = merit
            pop.accept_counts[i] += 1
            pop.pulse[i] = _pulse_value(pop.pulse_init[i], epoch, config)
            pop.loudness[i] = config.alpha * pop.loudness[i]
    return pop


def reference_levy(rng, k, beta=1.5, scale=0.01):
    u = rng.normal(0.0, _levy_sigma(beta), k)
    v = rng.normal(0.0, 1.0, k)
    return scale * u / np.abs(v) ** (1 / beta)


def reference_spiral(rng, k):
    d1 = np.arange(1, k + 1, dtype=np.float64)
    r1 = rng.uniform(1.0, 20.0)
    r = r1 + 0.00565 * d1
    theta = -0.005 * d1 + 1.5 * math.pi
    return r * np.cos(theta), r * np.sin(theta)


def reference_aquila_init(config, evaluator):
    positions = np.random.default_rng(config.seed).uniform(
        -1.0, 1.0, (config.n, evaluator.n_features)
    )
    fitness = np.array(
        [evaluator.merit_of_mask(row >= SELECT_THRESHOLD) for row in positions]
    )
    best_i = int(np.argmax(fitness))
    return AquilaPopulation(positions, fitness, positions[best_i].copy(), float(fitness[best_i]))


def reference_aquila_epoch(pop, evaluator, config, t):
    k = pop.positions.shape[1]
    lb, ub = -1.0, 1.0
    t_max = config.t_max
    positions, fitness = pop.positions, pop.fitness
    best_x, best_merit = pop.best_x, pop.best_merit
    rng = _epoch_rng(config.seed, t, stream=1)
    mean_x = positions.mean(axis=0)
    for i in range(config.n):
        if t <= (2.0 / 3.0) * t_max:
            if rng.uniform() < 0.5:
                x_new = best_x * (1.0 - t / t_max) + (mean_x - best_x * rng.uniform())
            else:
                peer = positions[rng.integers(config.n)]
                y_s, x_s = reference_spiral(rng, k)
                x_new = (
                    best_x * reference_levy(rng, k)
                    + peer
                    + (y_s - x_s) * rng.uniform()
                )
        else:
            if rng.uniform() < 0.5:
                x_new = (
                    (best_x - mean_x) * 0.1
                    - rng.uniform()
                    + ((ub - lb) * rng.uniform() + lb) * 0.1
                )
            else:
                qf = t ** ((2.0 * rng.uniform() - 1.0) / (1.0 - t_max) ** 2)
                g1 = 2.0 * rng.uniform() - 1.0
                g2 = 2.0 * (1.0 - t / t_max)
                x_new = (
                    qf * best_x
                    - (g1 * positions[i] * rng.uniform())
                    - g2 * reference_levy(rng, k)
                    + rng.uniform() * g1
                )
        x_new = np.clip(np.asarray(x_new, dtype=np.float64), lb, ub)
        merit = evaluator.merit_of_mask(x_new >= SELECT_THRESHOLD)
        if merit > fitness[i]:
            positions[i] = x_new
            fitness[i] = merit
        if fitness[i] > best_merit:
            best_merit = float(fitness[i])
            best_x = positions[i].copy()
    pop.best_x, pop.best_merit = best_x, best_merit
    return pop


class BlockCounter(MeritEvaluator):
    """An evaluator that counts the blocks an epoch scores."""

    blocks = 0

    def merits_of_masks(self, masks):
        self.blocks += 1
        return super().merits_of_masks(masks)


def assert_same_state(got, want):
    """Every field bitwise equal, floats compared by their bytes."""
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and other.shape == value.shape, name
            assert other.tobytes() == value.tobytes(), name
        else:
            assert type(other) is type(value) and other == value, name


class TestDecode:
    def test_threshold_is_inclusive(self):
        mask = decode_mask([0.49999, 0.5, 0.7, -1.0])
        np.testing.assert_array_equal(mask, [False, True, True, False])

    def test_decode_orders_indices(self):
        sub = decode([0.9, 0.1, 0.6])
        assert sub.indices == (0, 2)
        assert sub.k == 2

    def test_mask_round_trip(self):
        sub = FeatureSubset((1, 3))
        np.testing.assert_array_equal(
            sub.mask(5), [False, True, False, True, False]
        )

    def test_subset_validates_ordering(self):
        with pytest.raises(ValueError):
            FeatureSubset((3, 1))
        with pytest.raises(ValueError):
            FeatureSubset((2, 2))
        with pytest.raises(ValueError):
            FeatureSubset((-1, 0))


class TestEpochStreams:
    def test_reproducible_and_distinct(self):
        a = _epoch_rng(9, 4, stream=0).uniform(size=8)
        b = _epoch_rng(9, 4, stream=0).uniform(size=8)
        np.testing.assert_array_equal(a, b)
        c = _epoch_rng(9, 5, stream=0).uniform(size=8)
        d = _epoch_rng(9, 4, stream=1).uniform(size=8)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestBatInit:
    def test_draw_ranges(self):
        pop = bat_init(BatConfig(n=200, seed=1), 15)
        assert pop.x.shape == (200, 15)
        assert np.all((pop.x >= 0) & (pop.x < 1))
        assert np.all((pop.v >= -1) & (pop.v < 1))
        assert np.all((pop.freq >= 0) & (pop.freq < 0.1))
        assert np.all((pop.loudness >= 1) & (pop.loudness < 2))
        assert np.all((pop.pulse >= 0) & (pop.pulse < 1))

    def test_pulse_starts_at_its_initial_rate(self):
        pop = bat_init(BatConfig(n=50, seed=3), 6)
        np.testing.assert_array_equal(pop.pulse, pop.pulse_init)
        assert pop.pulse is not pop.pulse_init  # schedule must not alias r0

    def test_incumbent_starts_empty(self):
        pop = bat_init(BatConfig(n=10, seed=0), 4)
        np.testing.assert_array_equal(pop.best_x, np.zeros(4))
        assert pop.best_merit == 0.0
        np.testing.assert_array_equal(pop.accept_counts, np.zeros(10))

    def test_deterministic(self):
        a = bat_init(BatConfig(n=30, seed=7), 5)
        b = bat_init(BatConfig(n=30, seed=7), 5)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.loudness, b.loudness)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BatConfig(n=0)
        with pytest.raises(ValueError):
            BatConfig(t_max=-1)
        with pytest.raises(ValueError):
            BatConfig(alpha=0.0)
        with pytest.raises(ValueError):
            bat_init(BatConfig(), 0)


class TestPulseSchedule:
    def test_decaying_exponent(self):
        """Default schedule: r0 * (1 - exp(-(gamma ** epoch)))."""
        cfg = BatConfig()
        for epoch in (1, 7, 400):
            want = 0.8 * (1.0 - math.exp(-(0.95**epoch)))
            np.testing.assert_allclose(
                _pulse_value(0.8, epoch, cfg), want, rtol=0, atol=1e-15
            )

    def test_canonical_flag(self):
        cfg = BatConfig(canonical_pulse=True)
        want = 0.8 * (1.0 - math.exp(-0.95 * 12))
        np.testing.assert_allclose(
            _pulse_value(0.8, 12, cfg), want, rtol=0, atol=1e-15
        )

    def test_late_acceptance_resets_low(self):
        # gamma**t -> 0, so the default schedule pushes pulse toward zero
        cfg = BatConfig()
        assert _pulse_value(0.9, 500, cfg) < 1e-9
        assert _pulse_value(0.9, 500, BatConfig(canonical_pulse=True)) > 0.89


class TestBatEpoch:
    def make_pop(self, **overrides):
        base = dict(
            x=np.array([[0.7]]),
            v=np.array([[0.0]]),
            freq=np.array([0.05]),
            loudness=np.array([1.5]),
            pulse=np.array([1.0]),
            pulse_init=np.array([0.3]),
            best_x=np.array([0.0]),
            best_merit=0.0,
        )
        base.update(overrides)
        return BatPopulation(**base)

    def test_acceptance_updates_schedules(self):
        """An accepted improvement re-derives the pulse from r0 at the
        current epoch and damps the loudness by alpha."""
        from flowsel.correlation import MeritEvaluator

        cfg = BatConfig(n=1, seed=42)
        pop = self.make_pop()  # pulse 1.0 forces the cruise branch
        ev = MeritEvaluator(one_feature_matrix())
        bat_epoch(pop, ev, cfg, epoch=5)
        # cruise from 0.7 with |v| <= 0.07 keeps the feature selected,
        # and loudness 1.5 beats any acceptance gate in [0, 1)
        assert pop.best_merit == pytest.approx(0.6, abs=1e-15)
        assert pop.accept_counts[0] == 1
        np.testing.assert_allclose(
            pop.pulse[0], _pulse_value(0.3, 5, cfg), rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(pop.loudness[0], 0.95 * 1.5, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(pop.best_x, pop.x[0])

    def test_zero_loudness_never_accepts(self):
        from flowsel.correlation import MeritEvaluator

        cfg = BatConfig(n=1, seed=42)
        pop = self.make_pop(loudness=np.array([0.0]))
        ev = MeritEvaluator(one_feature_matrix())
        bat_epoch(pop, ev, cfg, epoch=5)
        assert pop.best_merit == 0.0
        np.testing.assert_array_equal(pop.best_x, [0.0])
        assert pop.accept_counts[0] == 0
        assert pop.pulse[0] == 1.0
        assert pop.loudness[0] == 0.0

    def test_later_bats_chase_the_moved_incumbent(self):
        """Bats update in index order against the live incumbent: once bat
        0 accepts at ~0.7, bat 1 at 0.3 must be pulled backward."""
        from flowsel.correlation import MeritEvaluator

        cfg = BatConfig(n=2, seed=42)
        pop = BatPopulation(
            x=np.array([[0.7], [0.3]]),
            v=np.zeros((2, 1)),
            freq=np.full(2, 0.05),
            loudness=np.array([1.5, 0.0]),
            pulse=np.ones(2),
            pulse_init=np.full(2, 0.3),
            best_x=np.array([0.0]),
            best_merit=0.0,
        )
        ev = MeritEvaluator(one_feature_matrix())
        bat_epoch(pop, ev, cfg, epoch=1)
        assert pop.accept_counts[0] == 1
        assert pop.v[1, 0] < 0.0  # (0.3 - best) * f with best > 0.7

    def test_local_walk_leaves_the_incumbent_subset(self):
        """A bat held in the local-walk branch (pulse and r0 at 0) around
        the optimum must decode to another subset within a few epochs: the
        eq. 5 step, eps in [-1, 1] times loudness, carries coordinates
        across the 0.5 threshold.  A +-0.01 step never does from 0.25 away."""
        from flowsel.correlation import MeritEvaluator

        rng = np.random.default_rng(5)
        corr = random_corr(rng, 6, 3)
        oracle = brute_force_best(corr)
        incumbent = np.where(oracle.best.mask(6), 0.75, 0.25)
        pop = BatPopulation(
            x=incumbent[None, :].copy(),
            v=np.zeros((1, 6)),
            freq=np.zeros(1),
            loudness=np.array([1.0]),
            pulse=np.zeros(1),
            pulse_init=np.zeros(1),
            best_x=incumbent.copy(),
            best_merit=oracle.best_merit,  # nothing can beat it
        )
        ev = MeritEvaluator(corr)
        cfg = BatConfig(n=1, seed=8)
        visited = set()
        for epoch in range(1, 6):
            bat_epoch(pop, ev, cfg, epoch)
            visited.add(decode(pop.x[0]).indices)
        np.testing.assert_array_equal(pop.best_x, incumbent)
        assert visited - {oracle.best.indices}

    def test_state_stays_in_bounds(self):
        """Positions and velocities hold their clamps and the schedules
        stay in range over a long fuzzed run."""
        rng = np.random.default_rng(31)
        corr = random_corr(rng, 7, 3)
        cfg = BatConfig(n=40, t_max=0, seed=13)
        from flowsel.correlation import MeritEvaluator

        ev = MeritEvaluator(corr)
        pop = bat_init(cfg, 7)
        seed_incumbent(pop, ev)
        a0 = pop.loudness.copy()
        for epoch in range(1, 1001):
            bat_epoch(pop, ev, cfg, epoch)
            assert np.all(np.abs(pop.x) <= 1.0)
            assert np.all(np.abs(pop.v) <= 1.0)
        assert np.all(pop.pulse >= 0.0) and np.all(pop.pulse < 1.0)
        # loudness is exactly its start damped once per acceptance
        np.testing.assert_allclose(
            pop.loudness, a0 * 0.95**pop.accept_counts, rtol=0, atol=1e-12
        )


class TestBatRun:
    def test_finds_exhaustive_best_on_tiny_problem(self):
        rng = np.random.default_rng(2)
        corr = random_corr(rng, 2, 2)
        oracle = brute_force_best(corr)
        got = bat_run(corr, BatConfig(n=100, t_max=50, seed=0))
        assert got.best.indices == oracle.best.indices
        assert got.best_merit == oracle.best_merit

    def test_trace_contract(self):
        rng = np.random.default_rng(8)
        corr = random_corr(rng, 6, 3)
        cfg = BatConfig(n=25, t_max=80, seed=4)
        res = bat_run(corr, cfg)
        assert len(res.merit_trace) == 81
        assert res.merit_trace[-1] == res.best_merit
        diffs = np.diff(res.merit_trace)
        assert np.all(diffs >= 0)  # incumbent merit never regresses
        assert res.evaluations == 25 * 81
        assert res.method == "ba"
        assert res.seed == 4

    def test_result_scores_match_the_matrix(self):
        rng = np.random.default_rng(19)
        corr = random_corr(rng, 5, 2)
        res = bat_run(corr, BatConfig(n=20, t_max=30, seed=1))
        assert res.best.cfs == cfs_merit(corr, res.best.indices)
        assert res.best.cfs.merit == res.best_merit

    def test_zero_epochs_is_just_the_init_sweep(self):
        rng = np.random.default_rng(6)
        corr = random_corr(rng, 4, 2)
        res = bat_run(corr, BatConfig(n=30, t_max=0, seed=2))
        assert len(res.merit_trace) == 1
        assert res.evaluations == 30

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        corr = random_corr(rng, 6, 3)
        cfg = BatConfig(n=20, t_max=40, seed=9)
        a = bat_run(corr, cfg)
        b = bat_run(corr, cfg)
        assert a.best.indices == b.best.indices
        assert a.merit_trace == b.merit_trace
        assert a.evaluations == b.evaluations


class TestAquilaRun:
    def test_trace_contract(self):
        rng = np.random.default_rng(21)
        corr = random_corr(rng, 6, 3)
        res = aquila_run(corr, AquilaConfig(n=20, t_max=60, seed=3))
        assert len(res.merit_trace) == 61
        assert np.all(np.diff(res.merit_trace) >= 0)
        assert res.merit_trace[-1] == res.best_merit
        assert res.evaluations == 20 * 61
        assert res.method == "ao"

    def test_finds_exhaustive_best_on_tiny_problem(self):
        rng = np.random.default_rng(25)
        corr = random_corr(rng, 2, 2)
        oracle = brute_force_best(corr)
        got = aquila_run(corr, AquilaConfig(n=60, t_max=40, seed=0))
        assert got.best_merit == oracle.best_merit

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        corr = random_corr(rng, 5, 2)
        cfg = AquilaConfig(n=15, t_max=30, seed=6)
        a = aquila_run(corr, cfg)
        b = aquila_run(corr, cfg)
        assert a.best.indices == b.best.indices
        assert a.merit_trace == b.merit_trace

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AquilaConfig(n=0)
        with pytest.raises(ValueError):
            AquilaConfig(t_max=-1)
        with pytest.raises(ValueError, match="got 1"):
            AquilaConfig(t_max=1)  # the quality function divides by (1 - t_max)^2
        AquilaConfig(t_max=0)
        AquilaConfig(t_max=2)


class TestBlockEpochsMatchSequential:
    """The block-scored epochs reproduce the sequential passes bit for bit:
    traces, subsets, evaluation counts and the final population state."""

    @pytest.mark.parametrize("k", [1, 4, 12, 63])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bat(self, k, seed):
        corr = random_corr(np.random.default_rng(100 + k), k, 3, rows=80)
        cfg = BatConfig(n=12, t_max=40, seed=seed)
        got_ev, want_ev = MeritEvaluator(corr), MeritEvaluator(corr)
        got, want = bat_init(cfg, k), bat_init(cfg, k)
        seed_incumbent(got, got_ev)
        reference_seed_incumbent(want, want_ev)
        trace = [want.best_merit]
        for epoch in range(1, cfg.t_max + 1):
            bat_epoch(got, got_ev, cfg, epoch)
            reference_bat_epoch(want, want_ev, cfg, epoch)
            assert got.best_merit == want.best_merit
            trace.append(want.best_merit)
        assert_same_state(got, want)
        assert got_ev.evaluations == want_ev.evaluations == cfg.n * (cfg.t_max + 1)

        res = bat_run(corr, cfg)
        assert res.merit_trace == tuple(trace)
        assert res.best.indices == decode(want.best_x).indices
        assert res.evaluations == want_ev.evaluations

    @pytest.mark.parametrize("k", [1, 4, 12, 63])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_aquila(self, k, seed):
        corr = random_corr(np.random.default_rng(200 + k), k, 3, rows=80)
        cfg = AquilaConfig(n=12, t_max=40, seed=seed)  # both phases
        got_ev, want_ev = MeritEvaluator(corr), MeritEvaluator(corr)
        got = aquila_init(cfg, got_ev)
        want = reference_aquila_init(cfg, want_ev)
        assert_same_state(got, want)
        trace = [want.best_merit]
        for t in range(1, cfg.t_max + 1):
            aquila_epoch(got, got_ev, cfg, t)
            reference_aquila_epoch(want, want_ev, cfg, t)
            assert got.best_merit == want.best_merit
            trace.append(want.best_merit)
        assert_same_state(got, want)
        assert got_ev.evaluations == want_ev.evaluations == cfg.n * (cfg.t_max + 1)

        res = aquila_run(corr, cfg)
        assert res.merit_trace == tuple(trace)
        assert res.best.indices == decode(want.best_x).indices
        assert res.evaluations == want_ev.evaluations

    def test_bat_epoch_with_several_acceptances(self):
        """From an empty incumbent the first epoch accepts again and again;
        each acceptance ends a block and the rest is redone."""
        corr = random_corr(np.random.default_rng(0), 8, 3)
        cfg = BatConfig(n=30, seed=2)
        got, want = bat_init(cfg, 8), bat_init(cfg, 8)
        ev = BlockCounter(corr)
        bat_epoch(got, ev, cfg, 1)
        reference_bat_epoch(want, MeritEvaluator(corr), cfg, 1)
        assert want.accept_counts.sum() >= 5
        assert ev.blocks >= want.accept_counts.sum()
        assert ev.evaluations == cfg.n
        assert_same_state(got, want)

    def test_aquila_block_cut_on_a_peer_conflict(self):
        """With the incumbent at the optimum no move can raise it, so every
        block after the first was cut before a candidate whose peer an
        earlier candidate of the block had just replaced."""
        corr = random_corr(np.random.default_rng(9), 6, 3)
        oracle = brute_force_best(corr)
        cfg = AquilaConfig(n=30, t_max=30, seed=4)

        def start():
            positions = np.random.default_rng(1).uniform(-1.0, 1.0, (cfg.n, 6))
            best_x = np.where(oracle.best.mask(6), 0.75, 0.25)
            return AquilaPopulation(positions, np.zeros(cfg.n), best_x, oracle.best_merit)

        got, want = start(), start()
        ev = BlockCounter(corr)
        aquila_epoch(got, ev, cfg, 1)
        reference_aquila_epoch(want, MeritEvaluator(corr), cfg, 1)
        assert want.best_merit == oracle.best_merit
        assert ev.blocks >= 2
        assert ev.evaluations == cfg.n
        assert_same_state(got, want)


class TestBruteForce:
    def test_matches_independent_enumeration(self):
        """Exact agreement with a combinations-based enumerator that never
        touches the evaluator."""
        rng = np.random.default_rng(40)
        for _ in range(25):
            nf = int(rng.integers(2, 9))
            corr = random_corr(rng, nf, int(rng.integers(2, 4)))
            oracle_merit, oracle_idx = enumerate_best(corr)
            got = brute_force_best(corr)
            assert got.best.indices == oracle_idx
            np.testing.assert_allclose(
                got.best_merit, oracle_merit, rtol=0, atol=1e-12
            )
            assert got.evaluations == 2**nf - 1

    def test_tie_breaks_to_fewer_then_lower_indices(self):
        # two identical features: {0}, {1} and {0,1} all score exactly 0.5
        v = np.array(
            [
                [1.0, 1.0, 0.5],
                [1.0, 1.0, 0.5],
                [0.5, 0.5, 1.0],
            ]
        )
        corr = CorrelationMatrix(v, ("a", "b", "c"), 2)
        got = brute_force_best(corr)
        assert got.best_merit == 0.5
        assert got.best.indices == (0,)

    def test_refuses_oversized_problems(self):
        rng = np.random.default_rng(1)
        corr = random_corr(rng, 6, 2)
        with pytest.raises(ValueError, match="exceed"):
            brute_force_best(corr, max_features=5)


class TestSubsetFiles:
    def test_round_trip_with_metadata(self, tmp_path):
        """The file holds the indices, method, seed and elapsed seconds; the
        scores are left to the reader, which has the matrix to recompute
        them from.  The text beside the container lists the names."""
        rng = np.random.default_rng(12)
        corr = random_corr(rng, 5, 2)
        subset = FeatureSubset((0, 3), cfs=cfs_merit(corr, (0, 3)), ig=0.25)
        names = corr.feature_names
        path = str(tmp_path / "subset.txt")
        save_subset(subset, names, path, method="ba", seed=7, elapsed=1.25)
        back, meta = load_subset(path, names)
        assert back == FeatureSubset((0, 3))
        assert meta == {"method": "ba", "seed": 7, "elapsed": 1.25}
        assert open(path).read() == f"{names[0]}\n{names[3]}\n"

    def test_unknown_feature_name_rejected(self, tmp_path):
        """A subset saved over other feature names is not served."""
        path = str(tmp_path / "subset.txt")
        save_subset(FeatureSubset((1, 2)), ("a", "b", "no_such_feature"), path)
        with pytest.raises(DataError, match="unknown feature name 'b'"):
            load_subset(path, ("a", "c", "no_such_feature"))
        with pytest.raises(DataError, match="unknown feature name 'no_such_feature'"):
            load_subset(path, ("a", "b"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_subset(str(tmp_path / "nope.txt"), ("a",))

    def test_save_checks_name_range(self, tmp_path):
        with pytest.raises(DataError):
            save_subset(FeatureSubset((5,)), ("a", "b"), str(tmp_path / "s.txt"))

    def test_trace_file(self, tmp_path):
        rng = np.random.default_rng(3)
        corr = random_corr(rng, 4, 2)
        res = bat_run(corr, BatConfig(n=10, t_max=5, seed=0))
        path = str(tmp_path / "trace.csv")
        save_trace(res, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch,best_merit"
        assert len(lines) == 7  # header + epochs 0..5
        for epoch, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == epoch
            assert float(cells[1]) == res.merit_trace[epoch]
