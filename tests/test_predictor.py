"""Deterministic noise predictors, text embeddings, and guided mixtures."""

import numpy as np
import pytest

from stegolink.predictor import ConditionSet, Predictor, embed_text, guided_predict
from stegolink.rng import gaussian_stream
from stegolink.schedule import build_schedule


def conditions(d=64):
    return ConditionSet(
        key_embedding=embed_text("public key text", d),
        feature_embedding=embed_text("structural feature text", d),
        ref_embedding=embed_text("reference stand-in", d),
    )


def rows_of(lam):
    """Four conditioned rows, or four unconditioned ones for lam None."""
    return [None] * 4 if lam is None else [
        ConditionSet(embed_text("key", 64), embed_text("feature", 64), embed_text(f"ref {i}", 64))
        for i in range(4)]


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

    def test_read_only(self):
        v = embed_text("a shared text", 32)
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0


class TestConditionSet:
    def test_embeddings_must_be_unit_or_zero(self):
        good = np.zeros(64)
        with pytest.raises(ValueError):
            ConditionSet(2.0 * embed_text("a", 64), good, good)
        with pytest.raises(ValueError, match="^ref_embedding must have unit norm or be all zero, got norm nan"):
            ConditionSet(good, good, np.full(64, np.nan))

    def test_without_reference_zeroes_only_the_reference(self):
        c = conditions()
        bare = c.without_reference()
        assert np.array_equal(bare.ref_embedding, np.zeros(64))
        assert np.array_equal(bare.key_embedding, c.key_embedding)

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
        z = gaussian_stream(1, int(np.prod(shape))).reshape(shape)
        assert guided_predict(p, z, 3, conditions()).shape == shape

    def test_zero_kind_returns_zeros(self):
        p = Predictor("zero", weight_seed=7)
        z = gaussian_stream(1, 64).reshape(1, 8, 8)
        assert np.array_equal(guided_predict(p, z, 1, conditions()), np.zeros((1, 8, 8)))

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    def test_deterministic(self, kind):
        z = gaussian_stream(2, 64).reshape(1, 8, 8)
        a = guided_predict(Predictor(kind, weight_seed=7), z, 5, conditions())
        b = guided_predict(Predictor(kind, weight_seed=7), z, 5, conditions())
        assert np.array_equal(a, b)

    def test_weight_seed_changes_output(self):
        z = gaussian_stream(2, 64).reshape(1, 8, 8)
        a = guided_predict(Predictor("tiny-mlp", weight_seed=7), z, 5, conditions())
        b = guided_predict(Predictor("tiny-mlp", weight_seed=8), z, 5, conditions())
        assert not np.array_equal(a, b)

    def test_none_conditions_match_zero_conditions(self):
        z = gaussian_stream(3, 64).reshape(1, 8, 8)
        zero = np.zeros(64)
        silent = ConditionSet(zero, zero, zero)
        for kind in ("linear", "tiny-mlp"):
            p = Predictor(kind, weight_seed=7)
            assert np.array_equal(guided_predict(p, z, 4, None), guided_predict(p, z, 4, silent))

    def test_linear_lipschitz_at_most_one(self):
        # mixing is orthogonal and the bias does not depend on z
        p = Predictor("linear", weight_seed=7)
        c = conditions()
        worst = 0.0
        for i in range(20):
            z1 = gaussian_stream(100 + i, 64).reshape(1, 8, 8)
            z2 = gaussian_stream(200 + i, 64).reshape(1, 8, 8)
            num = np.linalg.norm(guided_predict(p, z1, 3, c) - guided_predict(p, z2, 3, c))
            worst = max(worst, float(num / np.linalg.norm(z1 - z2)))
        assert worst <= 1.0 + 1e-9

    def test_tiny_mlp_bounded_on_unit_inputs(self):
        p = Predictor("tiny-mlp", weight_seed=7)
        z = gaussian_stream(4, 64).reshape(1, 8, 8)
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

    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    @pytest.mark.parametrize("t", [2.5, True], ids=["2.5", "True"])
    def test_step_count_is_the_schedules_to_check(self, kind, t):
        # bias once checked steps itself: zero and linear took 2.5, tiny-mlp
        # failed in numpy with a TypeError
        with pytest.raises(ValueError, match="^steps: "):
            guided_predict(Predictor(kind, weight_seed=7), np.ones((1, 8, 8)), t, None)

    @pytest.mark.parametrize("kind,stacked", [("zero", 0), ("linear", 8), ("tiny-mlp", 8)])
    def test_only_a_kind_that_reads_conditions_stacks_them(self, kind, stacked, monkeypatch):
        # two branches of four rows at lam 0.4; the zero predictor once
        # stacked them too, for no condition term
        calls = []
        real = ConditionSet.stacked
        monkeypatch.setattr(ConditionSet, "stacked", lambda self: calls.append(1) or real(self))
        bias = Predictor(kind, weight_seed=7).bias(64, build_schedule(10), rows_of(0.4), 0.4)
        assert len(calls) == stacked and bias.branches == (2 if stacked else 0)

    def test_bias_rejects_a_foreign_condition_dimension(self):
        p = Predictor("tiny-mlp", weight_seed=7, embed_dim=64)
        with pytest.raises(ValueError, match="embed_dim"):
            p.bias(64, build_schedule(10), [conditions(d=32)])

    @pytest.mark.parametrize("pred", [Predictor("tiny-mlp", weight_seed=7), Predictor("zero"), Predictor("linear")],
                             ids=["tiny-mlp-seed-7", "zero", "linear"])
    def test_a_bias_another_predictor_built_is_refused(self, pred):
        # at a seed-8 bias, seed 7 once returned seed 8's prediction, zero
        # returned zeros, and linear failed unpacking tiny-mlp's operands
        foreign = Predictor("tiny-mlp", weight_seed=8).bias(64, build_schedule(10), [None])
        with pytest.raises(ValueError, match="^bias: "):
            pred.predict(np.zeros((1, 8, 8)), 3, foreign)

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    def test_latents_must_fit_the_bias_rows(self, kind):
        p = Predictor(kind, weight_seed=7)
        with pytest.raises(ValueError):
            p.predict(np.zeros((4, 1, 8, 8)), 3, p.bias(64, build_schedule(10), [None]))

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0, None])
    def test_batched_rows_match_the_dense_formula(self, kind, lam):
        # each row of one batched call against the single-latent formula,
        # (1 - lam) * eps(key only) + lam * eps(full) over the concatenated
        # input [latent, time(t), key, feature, reference]
        p = Predictor(kind, weight_seed=7)
        t, n = 7, 128
        zs = gaussian_stream(12, 4 * n).reshape(4, 2, 8, 8)
        rows = rows_of(lam)
        out = p.predict(zs, t, p.bias(n, build_schedule(10), rows, 1.0 if lam is None else lam))
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

    @pytest.mark.parametrize("kwargs,name", [
        ({"weight_seed": 7.9}, "weight_seed"),
        ({"weight_seed": "7"}, "weight_seed"),
        ({"weight_seed": True}, "weight_seed"),
        ({"embed_dim": 64.5}, "embed_dim"),
        ({"embed_dim": True}, "embed_dim"),
    ])
    def test_seed_and_size_checked_never_converted(self, kwargs, name):
        # these once ran as seed 7 or 1 and embed_dim 64 or 1
        with pytest.raises(ValueError, match=f"^{name}: "):
            Predictor("linear", **kwargs)

    def test_lambda_range(self):
        p = Predictor("tiny-mlp", weight_seed=7)
        # a bool was once held as the weight, and a string raised Python's TypeError
        for lam in (1.5, -0.1, float("nan"), True, "1"):
            with pytest.raises(ValueError, match="^guidance_weight: "):
                p.bias(64, build_schedule(10), [conditions()], lam)


def broadcast_formula(p, z, t, bias):
    """predict's arithmetic before it bound its operands.

    Each call looked up the weights and transposed them, added the step and
    condition terms into new arrays, and a one-branch (1, rows, h) condition
    term broadcast the sum to 3-D, so tanh and the second product ran on a
    stacked batch.  An unconditioned row adds an all-zero term of that shape.
    """
    n = bias.n
    flat = z.reshape(bias.rows, n)
    if p.kind == "linear":
        qa, qb = p.weights_for(n)[:2]
        out = (qa @ flat.reshape(-1, len(qa), len(qb)) @ qb.T).reshape(flat.shape)
        out = out + (np.zeros((1, bias.rows, n)) if bias.cond is None else bias.cond)
    else:
        w1, w2 = p.weights_for(n)
        pre = flat @ w1[:, :n].T + bias.step[t]
        pre = pre + (np.zeros((1, bias.rows, w1.shape[0])) if bias.cond is None else bias.cond)
        out = np.tanh(pre) @ w2.T
    if bias.branches == 2:
        lam = bias.guidance_weight
        out = (1.0 - lam) * out[0] + lam * out[1]
    return out.reshape(z.shape)


class TestUnconditionedRows:
    # an unconditioned bias holds no condition term; predict used to add an
    # all-zero one, np.zeros((1, rows, n or hidden)), and mixed two branches
    # whenever its output had two leading rows

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    @pytest.mark.parametrize("rows", [1, 2, 4])
    @pytest.mark.parametrize("latent", ["gaussian", "zero"])
    def test_equal_the_zeros_added_formula(self, kind, rows, latent):
        # 2 rows is the case a leading-axis length test would mistake for
        # two guidance branches
        p = Predictor(kind, weight_seed=7)
        n = 64
        z = (gaussian_stream(21, rows * n) if latent == "gaussian" else np.zeros(rows * n))
        z = z.reshape(rows, 1, 8, 8)
        bias = p.bias(n, build_schedule(10), [None] * rows)
        assert bias.cond is None and bias.branches == 0 and bias.rows == rows
        for t in (1, 5, 10):
            assert np.array_equal(p.predict(z, t, bias), broadcast_formula(p, z, t, bias))

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    def test_take_keeps_no_condition_term(self, kind):
        p = Predictor(kind, weight_seed=7)
        bias = p.bias(64, build_schedule(10), [None] * 4)
        row = bias.take([2])
        assert row.rows == 1 and row.cond is None and row.step is bias.step


class TestKernel:
    # predict runs one 2-D kernel over operands bound once per (predictor,
    # n), in place after its first product; the bits are the broadcast
    # formula's

    @staticmethod
    def batch(n, rows, lam):
        z = gaussian_stream(31, rows * n).reshape(rows, 1, -1)
        return z, ([None] * rows if lam is None else rows_of(lam)[:rows])

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("lam", [None, 1.0, 0.0, 0.4])
    def test_equals_the_broadcast_formula(self, kind, rows, n, lam):
        p = Predictor(kind, weight_seed=7)
        z, conds = self.batch(n, rows, lam)
        bias = p.bias(n, build_schedule(10), conds, 1.0 if lam is None else lam)
        assert bias.branches == (0 if lam is None else 2 if lam == 0.4 else 1)
        for t in (1, 5, 10):
            assert np.array_equal(p.predict(z, t, bias), broadcast_formula(p, z, t, bias))

    @pytest.mark.parametrize("kind", ["zero", "linear", "tiny-mlp"])
    @pytest.mark.parametrize("lam", [None, 1.0, 0.4])
    def test_leaves_its_inputs_untouched_and_returns_a_new_array(self, kind, lam):
        p = Predictor(kind, weight_seed=7)
        z, conds = self.batch(256, 4, lam)
        bias = p.bias(256, build_schedule(10), conds, 1.0 if lam is None else lam)
        inputs = [z, *(a for a in (bias.step, bias.cond) if a is not None), *p.weights_for(256)]
        before = [a.copy() for a in inputs]
        out = p.predict(z, 3, bias)
        assert out.shape == z.shape
        assert all(np.array_equal(a, b) and a.tobytes() == b.tobytes() for a, b in zip(inputs, before))
        assert not any(np.shares_memory(out, a) for a in inputs)
        assert np.array_equal(p.predict(z, 3, bias), out)

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    def test_weights_and_terms_are_read_only(self, kind):
        p = Predictor(kind, weight_seed=7)
        bias = p.bias(64, build_schedule(10), rows_of(0.4), 0.4)
        arrays = [*p.weights_for(64), bias.cond, bias.take([1, 3]).cond]
        arrays += [a for a in bias.operands if isinstance(a, np.ndarray)]
        if kind == "tiny-mlp":
            arrays.append(bias.step)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    def test_operands_are_bound_once_per_size_as_views(self, kind):
        p = Predictor(kind, weight_seed=7)
        first = p.bias(64, build_schedule(10), [None])
        assert p.bias(64, build_schedule(20), rows_of(1.0), 1.0).operands is first.operands
        assert first.take([0]).operands is first.operands
        assert p.bias(256, build_schedule(10), [None]).operands is not first.operands
        weights = p.weights_for(64)
        for op in first.operands:
            if isinstance(op, np.ndarray):  # a weight or a view of one, never a copy
                assert any(op is w or op.base is w for w in weights)

    @pytest.mark.parametrize("kind", ["tiny-mlp", "linear"])
    @pytest.mark.parametrize("n", [7, 64, 256, 4096])
    def test_mlp_weights_start_on_a_cache_line(self, kind, n):
        # a row straddling two 64-byte lines slowed every predictor call:
        # tiny-mlp's w1 and w2, and linear's factors qa and qb
        for w in Predictor(kind, weight_seed=7).weights_for(n)[:2]:
            assert w.ctypes.data % 64 == 0 and w.flags.c_contiguous


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
        zs = gaussian_stream(13, 4 * n).reshape(4, *shape)
        bias = p.bias(n, build_schedule(10), rows_of(lam), 1.0 if lam is None else lam)
        out = p.predict(zs, 3, bias)
        for i in range(4):
            assert np.array_equal(out[i], p.predict(zs[i:i + 1], 3, bias.take([i]))[0])


class TestGuidedPredict:
    @pytest.mark.parametrize("kind", ["linear", "tiny-mlp"])
    def test_endpoints_exact(self, kind):
        # an endpoint evaluates only its branch: lam 0 is exactly the
        # prediction under the key-only set
        p = Predictor(kind, weight_seed=7)
        z = gaussian_stream(6, 64).reshape(1, 8, 8)
        c = conditions()
        assert np.array_equal(guided_predict(p, z, 3, c, 0.0), guided_predict(p, z, 3, c.without_reference()))
        for lam, branches in ((0.0, 1), (0.5, 2), (1.0, 1)):
            assert p.bias(64, build_schedule(3), [c], lam).cond.shape[0] == branches

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_affine_in_lambda(self, lam):
        p = Predictor("tiny-mlp", weight_seed=7)
        z = gaussian_stream(8, 64).reshape(1, 8, 8)
        lo = guided_predict(p, z, 3, conditions(), 0.0)
        hi = guided_predict(p, z, 3, conditions(), 1.0)
        mid = guided_predict(p, z, 3, conditions(), lam)
        assert np.max(np.abs(mid - (lo + lam * (hi - lo)))) < 1e-12

    def test_half_is_mean_of_endpoints(self):
        p = Predictor("linear", weight_seed=7)
        z = gaussian_stream(9, 64).reshape(1, 8, 8)
        lo = guided_predict(p, z, 2, conditions(), 0.0)
        hi = guided_predict(p, z, 2, conditions(), 1.0)
        mid = guided_predict(p, z, 2, conditions(), 0.5)
        assert np.max(np.abs(mid - 0.5 * (lo + hi))) < 1e-12
