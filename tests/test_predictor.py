"""Deterministic noise predictors, text embeddings, and guided mixtures."""

from dataclasses import replace

import numpy as np
import pytest

from stegolink.predictor import ConditionSet, Predictor, embed_text, guided_predict
from stegolink.rng import Seed64, gaussian_stream


def conditions(lam=1.0, d=64):
    return ConditionSet(
        key_embedding=embed_text("public key text", d),
        feature_embedding=embed_text("structural feature text", d),
        ref_embedding=embed_text("reference stand-in", d),
        guidance_weight=lam,
    )


class TestEmbedText:
    def test_unit_norm(self):
        for text in ("", "a", "a calm coastal landscape at dusk"):
            assert abs(np.linalg.norm(embed_text(text, 64)) - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(embed_text("same text", 64), embed_text("same text", 64))

    def test_corpus_cosines_spread(self):
        embs = np.array([embed_text(f"corpus string {i}", 64) for i in range(100)])
        cos = embs @ embs.T
        iu = np.triu_indices(100, k=1)
        assert float(np.max(np.abs(cos[iu]))) < 0.5

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            embed_text("x", 0)


class TestConditionSet:
    def test_embeddings_must_be_unit_or_zero(self):
        good = np.zeros(64)
        with pytest.raises(ValueError):
            ConditionSet(2.0 * embed_text("a", 64), good, good, 1.0)

    def test_lambda_range(self):
        e = embed_text("a", 64)
        with pytest.raises(ValueError):
            ConditionSet(e, e, e, 1.5)
        with pytest.raises(ValueError):
            ConditionSet(e, e, e, -0.1)

    def test_without_reference_zeroes_only_the_reference(self):
        c = conditions()
        bare = c.without_reference()
        assert np.array_equal(bare.ref_embedding, np.zeros(64))
        assert np.array_equal(bare.key_embedding, c.key_embedding)
        assert bare.guidance_weight == c.guidance_weight

    def test_stacked_layout(self):
        c = conditions()
        s = c.stacked()
        assert s.shape == (192,)
        assert np.array_equal(s[:64], c.key_embedding)
        assert np.array_equal(s[128:], c.ref_embedding)


class TestPredict:
    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    @pytest.mark.parametrize("shape", [(1, 8, 8), (2, 8, 8), (4, 8, 8)])
    def test_shape_preserving(self, kind, shape):
        p = Predictor(kind, weight_seed=7)
        z = gaussian_stream(Seed64(1), int(np.prod(shape))).reshape(shape)
        assert guided_predict(p, z, 3, conditions()).shape == shape

    def test_zero_kind_returns_zeros(self):
        p = Predictor("zero", weight_seed=7)
        z = gaussian_stream(Seed64(1), 64).reshape(1, 8, 8)
        assert np.array_equal(guided_predict(p, z, 1, conditions()), np.zeros((1, 8, 8)))

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    def test_deterministic(self, kind):
        z = gaussian_stream(Seed64(2), 64).reshape(1, 8, 8)
        a = guided_predict(Predictor(kind, weight_seed=7), z, 5, conditions())
        b = guided_predict(Predictor(kind, weight_seed=7), z, 5, conditions())
        assert np.array_equal(a, b)

    def test_weight_seed_changes_output(self):
        z = gaussian_stream(Seed64(2), 64).reshape(1, 8, 8)
        a = guided_predict(Predictor("tiny-mlp", weight_seed=7), z, 5, conditions())
        b = guided_predict(Predictor("tiny-mlp", weight_seed=8), z, 5, conditions())
        assert not np.array_equal(a, b)

    def test_none_conditions_match_zero_conditions(self):
        z = gaussian_stream(Seed64(3), 64).reshape(1, 8, 8)
        zero = np.zeros(64)
        silent = ConditionSet(zero, zero, zero, 1.0)
        for kind in ("linear", "tiny-mlp"):
            p = Predictor(kind, weight_seed=7)
            assert np.array_equal(guided_predict(p, z, 4, None), guided_predict(p, z, 4, silent))

    def test_linear_lipschitz_at_most_one(self):
        # mixing is orthogonal and the bias does not depend on z
        p = Predictor("linear", weight_seed=7)
        c = conditions()
        worst = 0.0
        for i in range(20):
            z1 = gaussian_stream(Seed64(100 + i), 64).reshape(1, 8, 8)
            z2 = gaussian_stream(Seed64(200 + i), 64).reshape(1, 8, 8)
            num = np.linalg.norm(guided_predict(p, z1, 3, c) - guided_predict(p, z2, 3, c))
            worst = max(worst, float(num / np.linalg.norm(z1 - z2)))
        assert worst <= 1.0 + 1e-9

    def test_tiny_mlp_bounded_on_unit_inputs(self):
        p = Predictor("tiny-mlp", weight_seed=7)
        z = gaussian_stream(Seed64(4), 64).reshape(1, 8, 8)
        out = guided_predict(p, z, 10, conditions())
        assert np.isfinite(out).all()
        assert float(np.max(np.abs(out))) < 50.0

    def test_nonfinite_input_rejected(self):
        p = Predictor("tiny-mlp", weight_seed=7)
        z = np.full((1, 8, 8), np.nan)
        with pytest.raises(ValueError):
            guided_predict(p, z, 1, conditions())

    def test_step_must_be_positive(self):
        p = Predictor("zero", weight_seed=7)
        with pytest.raises(ValueError):
            guided_predict(p, np.zeros((1, 8, 8)), 0, None)

    def test_bias_rejects_a_foreign_condition_dimension(self):
        p = Predictor("tiny-mlp", weight_seed=7, embed_dim=64)
        with pytest.raises(ValueError, match="embed_dim"):
            p.bias(64, 10, [conditions(d=32)])

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    def test_latents_must_fit_the_bias_rows(self, kind):
        p = Predictor(kind, weight_seed=7)
        with pytest.raises(ValueError):
            p.predict(np.zeros((4, 1, 8, 8)), 3, p.bias(64, 10, [None]))

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0, None])
    def test_batched_rows_match_the_dense_formula(self, kind, lam):
        # each row of one batched call against the single-latent formula,
        # (1 - lam) * eps(key only) + lam * eps(full) over the concatenated
        # input [latent, time(t), key, feature, reference]
        p = Predictor(kind, weight_seed=7)
        t, n = 7, 128
        zs = gaussian_stream(Seed64(12), 4 * n).reshape(4, 2, 8, 8)
        rows = [None] * 4 if lam is None else [
            ConditionSet(embed_text("key", 64), embed_text("feature", 64), embed_text(f"ref {i}", 64), lam)
            for i in range(4)]
        out = p.predict(zs, t, p.bias(n, 10, rows))
        assert out.shape == zs.shape

        j = np.arange(8)
        freq = 10000.0 ** (-2.0 * j / 16)
        time = np.empty(16)
        time[0::2], time[1::2] = np.sin(t * freq), np.cos(t * freq)

        def dense(flat, cvec):
            if kind == "linear":
                qa, qb, w, direction = p.weights_for(n)
                return np.kron(qa, qb) @ flat + 0.1 * float(w @ cvec) * direction
            w1, w2 = p.weights_for(n)
            return w2 @ np.tanh(w1 @ np.concatenate([flat, time, cvec]))

        for z, c, got in zip(zs, rows, out):
            flat = z.ravel()
            if c is None:
                want = dense(flat, np.zeros(192))
            else:
                key_only = dense(flat, c.without_reference().stacked())
                want = (1.0 - lam) * key_only + lam * dense(flat, c.stacked())
            assert np.max(np.abs(got.ravel() - want)) <= 1e-12 * np.max(np.abs(want))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Predictor("resnet", weight_seed=7)


class TestLinearMap:
    # the linear mixing is qa (x) qb, applied without forming the n x n matrix

    @pytest.mark.parametrize("n", [7, 64, 192, 1024])
    def test_kronecker_product_is_orthogonal(self, n):
        qa, qb = Predictor("linear", weight_seed=7).weights_for(n)[:2]
        q = np.kron(qa, qb)
        assert np.max(np.abs(q @ q.T - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("n, a", [(7, 1), (64, 8), (192, 12), (1024, 32), (4096, 64), (2 * 3 * 5 * 7, 14)])
    def test_factors_split_n_at_the_largest_divisor_up_to_its_root(self, n, a):
        qa, qb = Predictor("linear", weight_seed=7).weights_for(n)[:2]
        assert qa.shape == (a, a) and qb.shape == (n // a, n // a)

    @pytest.mark.parametrize("n", [4096, 16384])
    def test_weights_hold_order_n_values(self, n):
        weights = Predictor("linear", weight_seed=7, embed_dim=64).weights_for(n)
        assert sum(w.size for w in weights) == 2 * n + 3 * 64 + n

    @pytest.mark.parametrize("n, shape", [(1024, (1, 32, 32)), (192, (3, 8, 8)), (7, (1, 1, 7))])
    @pytest.mark.parametrize("lam", [0.4, 1.0, None])
    def test_each_row_equals_its_one_row_call(self, n, shape, lam):
        # the same precomputed terms for each row, so only the map is compared
        p = Predictor("linear", weight_seed=7)
        zs = gaussian_stream(Seed64(13), 4 * n).reshape(4, *shape)
        rows = [None] * 4 if lam is None else [
            ConditionSet(embed_text("key", 64), embed_text("feature", 64), embed_text(f"ref {i}", 64), lam)
            for i in range(4)]
        bias = p.bias(n, 10, rows)
        out = p.predict(zs, 3, bias)
        for i in range(4):
            assert np.array_equal(out[i], p.predict(zs[i:i + 1], 3, bias.take([i]))[0])


class TestGuidedPredict:
    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    def test_endpoints_exact(self, kind):
        # an endpoint evaluates only its branch: lam 0 is exactly the
        # prediction under the key-only set
        p = Predictor(kind, weight_seed=7)
        z = gaussian_stream(Seed64(6), 64).reshape(1, 8, 8)
        c0 = conditions(lam=0.0)
        key_only = replace(c0.without_reference(), guidance_weight=1.0)
        assert np.array_equal(guided_predict(p, z, 3, c0), guided_predict(p, z, 3, key_only))
        for lam, branches in ((0.0, 1), (0.5, 2), (1.0, 1)):
            assert p.bias(64, 3, [conditions(lam=lam)]).cond.shape[0] == branches

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_affine_in_lambda(self, lam):
        p = Predictor("tiny-mlp", weight_seed=7)
        z = gaussian_stream(Seed64(8), 64).reshape(1, 8, 8)
        lo = guided_predict(p, z, 3, conditions(lam=0.0))
        hi = guided_predict(p, z, 3, conditions(lam=1.0))
        mid = guided_predict(p, z, 3, conditions(lam=lam))
        assert np.max(np.abs(mid - (lo + lam * (hi - lo)))) < 1e-12

    def test_half_is_mean_of_endpoints(self):
        p = Predictor("linear", weight_seed=7)
        z = gaussian_stream(Seed64(9), 64).reshape(1, 8, 8)
        lo = guided_predict(p, z, 2, conditions(lam=0.0))
        hi = guided_predict(p, z, 2, conditions(lam=1.0))
        mid = guided_predict(p, z, 2, conditions(lam=0.5))
        assert np.max(np.abs(mid - 0.5 * (lo + hi))) < 1e-12
