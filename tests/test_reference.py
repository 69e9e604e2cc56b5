"""Token-seeded reference generation and its condition-space embedding."""

import numpy as np
import pytest

from stegolink.predictor import ConditionSet, Predictor, embed_text
from stegolink.reference import _POOL_SEGMENTS, _pooled_stats, embed_reference, generate_reference
from stegolink.rng import gaussian_stream, hash_token
from stegolink.schedule import build_schedule


def base_conditions(d=64):
    return ConditionSet(
        key_embedding=embed_text("a calm coastal landscape at dusk", d),
        feature_embedding=embed_text("broad horizon with a single foreground shape", d),
        ref_embedding=np.zeros(d),
    )


class TestGenerateReference:
    def test_transmitter_receiver_agreement(self):
        # two independent calls with identical inputs are bit-identical
        sched = build_schedule(10)
        pred = Predictor("tiny-mlp", weight_seed=7)
        a = generate_reference("9000", base_conditions(), sched, pred, (1, 8, 8))
        b = generate_reference("9000", base_conditions(), sched, pred, (1, 8, 8))
        assert np.array_equal(a, b)

    def test_zero_predictor_closed_form(self):
        sched = build_schedule(10)
        pred = Predictor("zero", weight_seed=7)
        r = generate_reference("9000", base_conditions(), sched, pred, (1, 8, 8))
        start = gaussian_stream(hash_token("9000", "ref"), 64).reshape(1, 8, 8)
        assert np.max(np.abs(r - start / np.sqrt(sched.alpha_bar[10]))) < 1e-12

    def test_distinct_tokens_distinct_references(self):
        sched = build_schedule(50)
        pred = Predictor("tiny-mlp", weight_seed=7)
        grids = {t: generate_reference(t, base_conditions(), sched, pred, (1, 8, 8))
                 for t in ("9000", "76576", "6718")}
        names = list(grids)
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = grids[names[i]], grids[names[j]]
                rel = float(np.linalg.norm(a - b) /
                            max(np.linalg.norm(a), np.linalg.norm(b)))
                assert rel > 0.5

    def test_reference_slot_is_ignored_during_generation(self):
        # generation zeroes the reference embedding, so whatever rides in
        # the slot cannot influence the result
        sched = build_schedule(10)
        pred = Predictor("tiny-mlp", weight_seed=7)
        loaded = ConditionSet(
            key_embedding=embed_text("a calm coastal landscape at dusk", 64),
            feature_embedding=embed_text("broad horizon with a single foreground shape", 64),
            ref_embedding=embed_text("stray reference", 64),
        )
        a = generate_reference("9000", base_conditions(), sched, pred, (1, 8, 8))
        b = generate_reference("9000", loaded, sched, pred, (1, 8, 8))
        assert np.array_equal(a, b)


class TestEmbedReference:
    def test_unit_norm(self):
        sched = build_schedule(8)
        pred = Predictor("tiny-mlp", weight_seed=7)
        r = generate_reference("9000", base_conditions(), sched, pred, (1, 8, 8))
        assert abs(float(np.linalg.norm(embed_reference(r, 64))) - 1.0) < 1e-12

    def test_deterministic(self):
        sched = build_schedule(8)
        pred = Predictor("tiny-mlp", weight_seed=7)
        r = generate_reference("9000", base_conditions(), sched, pred, (1, 8, 8))
        assert np.array_equal(embed_reference(r, 64), embed_reference(r, 64))

    @pytest.mark.parametrize("shape", [(1, 8, 8), (4, 8, 8)])
    def test_token_corpus_embeddings_spread(self, shape):
        sched = build_schedule(8)
        pred = Predictor("tiny-mlp", weight_seed=7)
        cond = base_conditions()
        embs = np.array([
            embed_reference(generate_reference(f"tok-{i:02d}", cond, sched, pred, shape), 64)
            for i in range(20)
        ])
        cos = embs @ embs.T
        iu = np.triu_indices(20, k=1)
        assert float(np.max(np.abs(cos[iu]))) < 0.9

    def test_degenerate_constant_grid_falls_back(self):
        v = embed_reference(np.ones((1, 8, 8)), 16)
        assert v[0] == 1.0 and float(np.linalg.norm(v)) == 1.0

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            embed_reference(np.ones((1, 4, 4)), 0)

    @pytest.mark.parametrize("shape", [(1, 8, 8), (3, 5, 7)])
    def test_equals_the_written_out_projection(self, shape):
        # a fresh draw of the seeded map for every embedding; two shapes at
        # one d catch a projection shared across stats sizes
        grid = gaussian_stream(hash_token(f"embed|{shape}", "trial"), int(np.prod(shape))).reshape(shape)
        stats = np.concatenate([_pooled_stats(c) for c in grid.reshape(shape[0], -1)])
        proj = gaussian_stream(hash_token(b"reference-embedding", "proj"), 16 * stats.size)
        v = (proj.reshape(16, stats.size) / np.sqrt(stats.size)) @ stats
        assert np.array_equal(embed_reference(grid, 16), v / float(np.linalg.norm(v)))


class TestPooledStats:
    def test_equals_the_array_split_definition(self):
        def written_out(channel):
            segments = np.array_split(channel, min(_POOL_SEGMENTS, channel.size))
            means = np.array([s.mean() for s in segments])
            variances = np.array([s.var() for s in segments])
            return np.concatenate([means - means.mean(), variances - variances.mean()])

        differ = []
        for size in list(range(1, 300)) + [1024, 3072, 65536]:
            channel = gaussian_stream(hash_token(f"pool|{size}", "trial"), size)
            if _pooled_stats(channel).tobytes() != written_out(channel).tobytes():
                differ.append(size)
        assert differ == []
