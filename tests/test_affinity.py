from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtrack.affinity import (
    MODES,
    AffinityFitHyper,
    AffinityHeadParams,
    GalleryStore,
    affinity_accuracy,
    fit_affinity_head,
    normalize_channels,
)
from mvtrack.affinity import appearance_cost as appearance_cost_matrix
from mvtrack.association import gated_assign
from oracles import BBox, _statistic, affinity, appearance_cost, iou_cost, ps_maps
from tables import gallery_store


def random_patch(rng, m=7, c=16):
    return rng.standard_normal((m, m, c))


def noisy_pair(rng, noise=0.1, m=7, c=16):
    base = rng.standard_normal((m, m, c))
    return base + noise * rng.standard_normal((m, m, c)), base + noise * rng.standard_normal((m, m, c))


def test_normalize_unit_vectors_unchanged():
    f = np.zeros((2, 2, 2))
    f[..., 0] = 1.0
    np.testing.assert_allclose(normalize_channels(f), f)


def test_normalize_three_four_five():
    f = np.zeros((1, 1, 2))
    f[0, 0] = (3.0, 4.0)
    np.testing.assert_allclose(normalize_channels(f)[0, 0], (0.6, 0.8))


def test_normalize_zero_stays_zero():
    f = np.zeros((3, 3, 4))
    np.testing.assert_array_equal(normalize_channels(f), f)


def test_normalize_idempotent_random():
    rng = np.random.default_rng(0)
    f = random_patch(rng)
    n1 = normalize_channels(f)
    np.testing.assert_allclose(normalize_channels(n1), n1, atol=1e-12)


def test_ps_maps_all_ones():
    f = normalize_channels(np.ones((2, 2, 1)))
    mij, mji = ps_maps(f, f)
    assert mij.shape == (2, 2, 4)
    np.testing.assert_allclose(mij, 1.0)
    np.testing.assert_allclose(mji, 1.0)


def test_ps_maps_orthogonal_channels():
    fi = np.zeros((2, 2, 2))
    fj = np.zeros((2, 2, 2))
    fi[..., 0] = 1.0
    fj[..., 1] = 1.0
    mij, mji = ps_maps(fi, fj)
    assert not mij.any() and not mji.any()


def test_ps_maps_match_brute_force_and_multiset():
    rng = np.random.default_rng(1)
    m, c = 7, 16
    fi = normalize_channels(random_patch(rng, m, c))
    fj = normalize_channels(random_patch(rng, m, c))
    mij, mji = ps_maps(fi, fj)
    # brute-force double loop over spatial positions
    brute_ij = np.zeros((m, m, m * m))
    brute_ji = np.zeros((m, m, m * m))
    for u in range(m):
        for v in range(m):
            for p in range(m * m):
                pu, pv = divmod(p, m)
                brute_ij[u, v, p] = fi[u, v] @ fj[pu, pv]
                brute_ji[u, v, p] = fj[u, v] @ fi[pu, pv]
    np.testing.assert_allclose(mij, brute_ij, atol=1e-12)
    np.testing.assert_allclose(mji, brute_ji, atol=1e-12)
    assert np.allclose(np.sort(mij.ravel()), np.sort(mji.ravel()), atol=1e-12)
    assert np.all(mij <= 1 + 1e-12) and np.all(mij >= -1 - 1e-12)


def test_ps_maps_shape_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ps_maps(random_patch(rng, 7, 16), random_patch(rng, 5, 16))


def test_affinity_constant_head():
    rng = np.random.default_rng(2)
    params = AffinityHeadParams(0.0, 0.4)
    p = affinity(params, random_patch(rng), random_patch(rng))
    assert p == pytest.approx(1 / (1 + np.exp(-0.4)))


def test_affinity_scale_invariant():
    rng = np.random.default_rng(3)
    params = AffinityHeadParams(4.0, -2.0)
    fi, fj = random_patch(rng), random_patch(rng)
    assert affinity(params, 7.5 * fi, fj) == pytest.approx(affinity(params, fi, fj))
    assert affinity(params, fi, 0.01 * fj) == pytest.approx(affinity(params, fi, fj))


def test_withps_statistic_dominates_aligned():
    rng = np.random.default_rng(4)
    for _ in range(25):
        fi, fj = random_patch(rng), random_patch(rng)
        assert _statistic(fi, fj, "withps") >= _statistic(fi, fj, "nops") - 1e-12


def test_misalignment_robustness():
    # patches shifted by one bin: cross-position pooling still sees the match,
    # aligned comparison does not
    rng = np.random.default_rng(5)
    margins = []
    for _ in range(20):
        base = random_patch(rng)
        shifted = np.zeros_like(base)
        shifted[1:] = base[:-1]
        margins.append(_statistic(base, shifted, "withps") - _statistic(base, shifted, "nops"))
    assert min(margins) > 0.5


def test_fit_separable_reaches_full_accuracy():
    rng = np.random.default_rng(6)
    pairs = []
    for _ in range(120):
        a, b = noisy_pair(rng, 0.1)
        d = random_patch(rng)
        pairs.append((a, b, 1))
        pairs.append((a, d, 0))
    params, ce = fit_affinity_head(pairs, AffinityFitHyper(lr=1.0, epochs=800))
    assert affinity_accuracy(params, pairs) == 1.0
    assert ce < 0.2


def test_fit_uninformative_labels_learn_prior():
    rng = np.random.default_rng(7)
    pairs = []
    for i in range(10_000):
        pairs.append((random_patch(rng), random_patch(rng), 1 if i % 4 == 0 else 0))  # prior 0.25
    params, _ = fit_affinity_head(pairs, AffinityFitHyper(lr=1.0, epochs=800))
    # probabilities hover near the class prior; accuracy equals the majority rate
    p = [affinity(params, fi, fj) for fi, fj, _ in pairs[:200]]
    assert np.mean(p) == pytest.approx(0.25, abs=0.05)
    assert affinity_accuracy(params, pairs) == pytest.approx(0.75, abs=0.01)


def test_fit_heldout_accuracy_on_generator_pairs():
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(300):
        a, b = noisy_pair(rng, 0.1)
        d = random_patch(rng) + 0.1 * random_patch(rng)
        pairs.append((a, b, 1))
        pairs.append((a, d, 0))
    train, hold = pairs[:400], pairs[400:]
    params, _ = fit_affinity_head(train, AffinityFitHyper(lr=1.0, epochs=800))
    assert affinity_accuracy(params, hold) >= 0.95
    # self-pair sanity after fitting
    f = random_patch(rng)
    assert affinity(params, f, f) > 0.5


def test_fit_single_class_rejected():
    rng = np.random.default_rng(9)
    pairs = [(random_patch(rng), random_patch(rng), 1) for _ in range(10)]
    with pytest.raises(ValueError):
        fit_affinity_head(pairs)


def test_iou_cost_identical_boxes():
    b = BBox(10, 10, 5, 5)
    assert iou_cost(b, b) == 0.0


def test_appearance_cost_from_best_gallery_entry():
    rng = np.random.default_rng(10)
    base = random_patch(rng)
    params, _ = fit_affinity_head(
        [(base + 0.1 * random_patch(rng), base + 0.1 * random_patch(rng), 1) for _ in range(40)]
        + [(base, random_patch(rng), 0) for _ in range(40)],
        AffinityFitHyper(lr=1.0, epochs=500),
    )
    probe = base + 0.1 * random_patch(rng)
    gallery = [random_patch(rng), base + 0.1 * random_patch(rng), random_patch(rng)]
    best = max(affinity(params, g, probe) for g in gallery)
    assert appearance_cost(params, gallery, probe) == pytest.approx(1 - best)
    # max over the gallery is monotone: adding entries never raises the cost
    bigger = gallery + [random_patch(rng)]
    assert appearance_cost(params, bigger, probe) <= appearance_cost(params, gallery, probe) + 1e-12


def test_appearance_cost_empty_gallery():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        appearance_cost(AffinityHeadParams(1.0, 0.0), [], random_patch(rng))


def test_cost_ranges():
    rng = np.random.default_rng(12)
    params = AffinityHeadParams(5.0, -3.0)
    for _ in range(10):
        c = appearance_cost(params, [random_patch(rng)], random_patch(rng))
        assert 0.0 <= c <= 1.0
        a = BBox(*rng.uniform(0, 100, 2), *rng.uniform(1, 50, 2))
        b = BBox(*rng.uniform(0, 100, 2), *rng.uniform(1, 50, 2))
        assert 0.0 <= iou_cost(a, b) <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    d=st.integers(0, 10),
    max_gallery=st.integers(1, 24),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 16)),
    mode=st.sampled_from(MODES),
    w=st.one_of(st.just(0.0), st.floats(-30.0, -0.01), st.floats(0.01, 30.0)),
    b=st.floats(-20.0, 20.0),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    live_share=st.sampled_from([None, 0.0, 0.1, 0.5, 1.0]),
)
def test_appearance_cost_matrix_matches_per_pair_oracle(seed, n, d, max_gallery, shape, mode, w, b, zero_share, live_share):
    rng = np.random.default_rng(seed)
    m, c = shape

    def patch():
        return np.zeros((m, m, c)) if rng.random() < zero_share else rng.standard_normal((m, m, c))

    galleries = [[patch() for _ in range(rng.integers(1, max_gallery + 1))] for _ in range(n)]
    features = np.array([patch() for _ in range(d)]).reshape(d, m, m, c)
    params = AffinityHeadParams(w, b, mode)
    # None scores every cell; a mask scores its live cells and leaves the rest 0
    live = np.ones((n, d), dtype=bool) if live_share is None else rng.random((n, d)) < live_share
    store, slots = gallery_store(galleries)
    cost = appearance_cost_matrix(params, store, slots, features, None if live_share is None else live)
    expected = np.array([[appearance_cost(params, g, f) for f in features] for g in galleries]).reshape(n, d)
    assert cost.shape == (n, d)
    # each pair is its own BLAS product, so a cell has the oracle's bits whatever else is scored
    assert cost.tobytes() == np.where(live, expected, 0.0).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    d=st.integers(1, 6),
    l_f=st.sampled_from([1, 2, 3, 4, 24]),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 8)),
    mode=st.sampled_from(MODES),
    w=st.one_of(st.just(0.0), st.floats(-30.0, -0.01), st.floats(0.01, 30.0)),
    b=st.floats(-20.0, 20.0),
    spread=st.sampled_from([0.02, 0.3, 1.0]),
    zero_share=st.sampled_from([0.0, 0.3]),
    gate=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), st.just("on a cell"), st.just("per cell")),
)
def test_gated_appearance_cost_keeps_the_cells_that_pass(seed, n, d, l_f, shape, mode, w, b, spread, zero_share, gate):
    # galleries of noisy copies of one identity each, up to twice as long as
    # the ring holds; detections copy a row's identity or a new one. A cell
    # at or under its gate has the bits of its full cost (the default
    # gate's), any other stays above its gate; a gate on a cell's cost keeps
    # that cell exactly
    rng = np.random.default_rng(seed)
    m, c = shape
    identities = rng.standard_normal((n + d, m, m, c))

    def patch(identity):
        return np.zeros((m, m, c)) if rng.random() < zero_share else identities[identity] + spread * rng.standard_normal((m, m, c))

    galleries = [[patch(i) for _ in range(rng.integers(1, 2 * l_f + 3))] for i in range(n)]
    features = np.array([patch(rng.integers(n + d)) for _ in range(d)])
    params = AffinityHeadParams(w, b, mode)
    store, slots = gallery_store(galleries, l_f)
    full = appearance_cost_matrix(params, store, slots, features)
    if gate == "on a cell":
        gate = float(rng.choice(full.ravel()))
    elif gate == "per cell":
        # each cell's gate on its cost, at 0, at +inf or anywhere in [0, 1]
        pick = rng.integers(4, size=full.shape)
        gate = np.choose(pick, [full, np.zeros(full.shape), np.full(full.shape, np.inf), rng.random(full.shape)])
    gated = appearance_cost_matrix(params, store, slots, features, gate=gate)
    same = gated.view(np.int64) == full.view(np.int64)
    assert np.all(same | ((gated > gate) & (full > gate)))

    def assign(cost):
        # a cell over its gate is forbidden: costs lie in [0, 1]
        return [a.tolist() for a in gated_assign(np.where(cost > gate, 2.0, cost), 1.0)]

    assert assign(gated) == assign(full)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("w", [8.0, -8.0])
def test_gate_keeps_an_entry_whose_bound_is_tight(mode, w):
    # four bins; "high" differs from "low" in bin 0 alone, by sqrt(2), and
    # every detection bin points along that move, so the statistics of the
    # two entries differ by exactly the radius: the mean of the bin moves
    # ("nops"), or the mean and max of them halved ("withps"). The older
    # entry is the better one, and with the gate on the cell's cost it must
    # be scored
    low = np.tile([0.0, 1.0], (2, 2, 1))
    high = low.copy()
    high[0, 0] = (1.0, 0.0)
    older, newest = (high, low) if w > 0 else (low, high)
    detection = np.tile(np.array([1.0, -1.0]) / np.sqrt(2), (1, 2, 2, 1))
    params = AffinityHeadParams(w, 0.0, mode)
    store, slots = gallery_store([[older, newest]])
    full = appearance_cost_matrix(params, store, slots, detection)
    assert full.tobytes() == appearance_cost_matrix(params, *gallery_store([[older]]), detection).tobytes()
    gated = appearance_cost_matrix(params, store, slots, detection, gate=float(full[0, 0]))
    assert gated.tobytes() == full.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_appearance_cost_matrix_rejects_bad_input(mode):
    rng = np.random.default_rng(13)
    params = AffinityHeadParams(1.0, 0.0, mode)
    probe = random_patch(rng)[None]
    for galleries in ([[random_patch(rng)], []], [[random_patch(rng, 5, 16)]], [[random_patch(rng, 7, 8)]]):
        with pytest.raises(ValueError):
            appearance_cost_matrix(params, *gallery_store(galleries), probe)
    # the first write fixes the store's patch shape
    with pytest.raises(ValueError, match="patch shapes differ"):
        gallery_store([[random_patch(rng), random_patch(rng, 5, 16)]])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    l_f=st.sampled_from([1, 2, 3, 4, 24]),
    steps=st.integers(1, 16),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),
    mode=st.sampled_from(MODES),
    w=st.one_of(st.just(0.0), st.floats(-30.0, -0.01), st.floats(0.01, 30.0)),
    b=st.floats(-20.0, 20.0),
    zero_share=st.sampled_from([0.0, 0.3]),
)
def test_gallery_store_matches_deques(seed, l_f, steps, shape, mode, w, b, zero_share):
    # the store and one deque(maxlen=l_f) per row take the same deletions,
    # births and appends; after each update an appearance call over a random
    # live mask must give the per-pair oracle's costs over the deques
    rng = np.random.default_rng(seed)
    m, c = shape
    params = AffinityHeadParams(w, b, mode)

    def patches(k):
        out = rng.standard_normal((k, m, m, c))
        out[rng.random(k) < zero_share] = 0.0
        return out

    store, slots, deques = GalleryStore(l_f), np.zeros(0, dtype=np.intp), []
    for _ in range(steps):
        gone = rng.random(len(deques)) < 0.25
        store.release(slots[gone])
        slots, deques = slots[~gone], [g for g, x in zip(deques, gone.tolist()) if not x]
        born = store.take(int(rng.integers(0, 4)))
        assert not set(born.tolist()) & set(slots.tolist())
        slots, deques = np.concatenate([slots, born]), deques + [deque(maxlen=l_f) for _ in born]
        # every newborn gets its first patch, most older rows one more
        written = np.flatnonzero((rng.random(len(deques)) < 0.8) | (np.arange(len(deques)) >= len(deques) - len(born)))
        new = patches(len(written))
        store.append(slots[written], new)
        for i, p in zip(written.tolist(), new):
            deques[i].append(p)
        # released entries are free again: the store holds only the rows' entries
        assert np.count_nonzero(store.used) == store.lengths(slots).sum() == sum(map(len, deques))
        features = patches(int(rng.integers(0, 4)))
        live = rng.random((len(deques), len(features))) < rng.choice([0.0, 0.4, 1.0])
        cost = appearance_cost_matrix(params, store, slots, features, live)
        expected = np.array([[appearance_cost(params, g, f) for f in features] for g in deques]).reshape(live.shape)
        assert cost.tobytes() == np.where(live, expected, 0.0).tobytes()
