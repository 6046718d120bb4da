import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import infer_plan_bytes, nan_loss_eval_pass
from sliceforge import layers
from sliceforge import model as M
from sliceforge import training as T
from sliceforge.data import AugmentConfig, SliceSet, generate_synthetic, load_slice_set
from sliceforge.errors import ConfigError, DataError, NumericError, ShapeError
from sliceforge.metrics import ConfusionCounts, compute_metrics
from sliceforge.rng import TAG_DROPOUT, SplitMixStream
from sliceforge.splits import kfold_split


def make_slice_set(n, h=8, w=8, seed=0, prefix="s"):
    """Separable toy set: class 1 slices carry a dark center patch. Raw
    intensities in [0, 160] are normalized by a 255 ceiling, as at load."""
    rng = np.random.default_rng(seed)
    slices, labels, sids, keys = [], [], [], []
    for i in range(n):
        label = i % 2
        img = rng.uniform(120, 160, size=(h, w)).astype(np.float32)
        if label:
            img[h // 4:3 * h // 4, w // 4:3 * w // 4] *= 0.2
        slices.append(img)
        labels.append(label)
        sids.append(f"{prefix}{i:03d}")
        keys.append(f"{prefix}{i:03d}#0")
    return SliceSet(
        x=np.stack(slices)[:, None] / np.float32(255.0),
        labels=np.asarray(labels, dtype=np.int64),
        subject_ids=sids,
        slice_keys=keys,
    )


class TestBceLoss:
    def test_half_prob_gives_ln2(self):
        loss, _ = T.bce_loss(np.array([0.0]), [1])
        assert loss == pytest.approx(math.log(2), rel=1e-9)

    def test_perfect_fit_small_loss(self):
        logits = np.array([30.0, -30.0, 25.0])
        loss, _ = T.bce_loss(logits, [1, 0, 1])
        assert loss <= 1e-6

    def test_gradient_is_p_minus_y_over_n(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=8)
        y = rng.integers(0, 2, size=8)
        loss, grad = T.bce_loss(z, y)
        p = 1 / (1 + np.exp(-z))
        np.testing.assert_allclose(grad, (p - y) / 8, rtol=1e-12)
        # against central differences on the loss itself
        h = 1e-6
        for i in range(8):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (T.bce_loss(zp, y)[0] - T.bce_loss(zm, y)[0]) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6

    def test_bad_label(self):
        with pytest.raises(DataError):
            T.bce_loss(np.array([0.0]), [2])

    def test_finite_for_extreme_logits(self):
        for z in (-50.0, 50.0, -745.0, 745.0):
            loss, grad = T.bce_loss(np.array([z]), [1])
            assert np.isfinite(loss)
            assert np.all(np.isfinite(grad))


class TestClipGradients:
    def test_noop_region(self):
        grads = {"a": np.array([0.3, -0.4]), "b": np.array([[0.2]])}
        out = T.clip_gradients(grads, 0.5, 1.0)
        for k in grads:
            np.testing.assert_array_equal(out[k], grads[k])

    def test_value_stage(self):
        out = T.clip_gradients({"a": np.array([0.7])}, 0.5, 10.0)
        assert out["a"][0] == pytest.approx(0.5)

    def test_value_then_norm_hand_case(self):
        # [0.6, 0.8] clamps to [0.5, 0.5]; global norm sqrt(0.5) < 1 so the
        # norm stage leaves it alone
        out = T.clip_gradients({"a": np.array([0.6, 0.8])}, 0.5, 1.0)
        np.testing.assert_allclose(out["a"], [0.5, 0.5])

    def test_norm_stage_rescales(self):
        grads = {"a": np.full(100, 0.5)}
        out = T.clip_gradients(grads, 0.5, 1.0)
        norm = np.linalg.norm(out["a"])
        assert norm == pytest.approx(1.0, rel=1e-6)

    def test_contract_on_random_collections(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            grads = {
                f"t{j}": rng.normal(scale=rng.uniform(0.01, 10), size=rng.integers(1, 40))
                for j in range(rng.integers(1, 6))
            }
            out = T.clip_gradients(grads, 0.5, 1.0)
            peak = max(np.abs(g).max() for g in out.values())
            norm = math.sqrt(sum(float(np.sum(g ** 2)) for g in out.values()))
            assert peak <= 0.5 + 1e-9
            assert norm <= 1.0 + 1e-6


class TestLrSchedule:
    def test_epoch_zero(self):
        cfg = T.TrainConfig()
        assert T.lr_for_epoch(cfg, 0) == pytest.approx(1e-4)

    def test_decay_step(self):
        cfg = T.TrainConfig(initial_lr=1e-4, decay_factor=0.96)
        assert T.lr_for_epoch(cfg, 1) == pytest.approx(9.6e-5)

    def test_nonincreasing(self):
        cfg = T.TrainConfig(initial_lr=1e-3, decay_factor=0.9)
        seq = [T.lr_for_epoch(cfg, e) for e in range(40)]
        assert all(b <= a for a, b in zip(seq, seq[1:]))


class TestSgdStep:
    def test_updates(self):
        model = M.build_model(M.ModelConfig(input_height=8, input_width=8), seed=0)
        name, p = model.named_parameters()[0]
        p[...] = 1.0
        grads = {n: np.zeros_like(a) for n, a in model.named_parameters()}
        grads[name][...] = 1.0
        T.sgd_step(model, grads, 0.1)
        np.testing.assert_allclose(p, 0.9, rtol=1e-6)
        T.sgd_step(model, grads, 0.1)
        np.testing.assert_allclose(p, 0.8, rtol=1e-6)


class TestFit:
    def small_model(self, dropout=0.5):
        cfg = M.ModelConfig(input_height=8, input_width=8, dropout_rate=dropout)
        return M.build_model(cfg, seed=1)

    def test_history_length_and_determinism(self):
        train = make_slice_set(12, seed=1)
        val = make_slice_set(6, seed=2, prefix="v")
        cfg = T.TrainConfig(initial_lr=1e-3, epochs=3, batch_size=4, seed=9)
        res1 = T.fit(self.small_model(), train, val, cfg, AugmentConfig())
        res2 = T.fit(self.small_model(), train, val, cfg, AugmentConfig())
        assert len(res1.history) == 3
        for r1, r2 in zip(res1.history, res2.history):
            assert r1 == r2
        for (_, a), (_, b) in zip(res1.final.state_arrays(), res2.final.state_arrays()):
            assert a.tobytes() == b.tobytes()

    def test_loss_decreases_one_epoch_small_lr(self):
        # frozen batch: dropout off, no augmentation, full-batch step
        train = make_slice_set(8, seed=3)
        model = self.small_model(dropout=0.0)
        x = train.x.copy()
        y = train.labels

        def train_mode_loss():
            _, caches = M.forward(model, x, "train")
            return T.bce_loss(caches.logits, y)[0]

        before = train_mode_loss()
        cfg = T.TrainConfig(initial_lr=1e-5, epochs=1, batch_size=8, seed=4)
        T.fit(model, train, make_slice_set(4, seed=5, prefix="v"), cfg, None)
        after = train_mode_loss()
        assert after < before

    def test_batch_size_larger_than_train_rejected(self):
        train = make_slice_set(4)
        with pytest.raises(ConfigError):
            T.fit(self.small_model(), train, train, T.TrainConfig(batch_size=8, epochs=1), None)

    def test_overlapping_sets_rejected(self):
        train = make_slice_set(8, seed=6)
        with pytest.raises(DataError):
            T.fit(self.small_model(), train, train,
                  T.TrainConfig(batch_size=4, epochs=1), None)

    def test_divergence_reported_with_location(self):
        train = make_slice_set(8, seed=7)
        val = make_slice_set(4, seed=8, prefix="v")
        model = self.small_model()
        model.output.bias[...] = np.inf  # saturated logits make the loss non-finite
        cfg = T.TrainConfig(initial_lr=1.0, epochs=2, batch_size=4, seed=0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="epoch"):
                T.fit(model, train, val, cfg, None)

    def test_non_finite_forward_reported_with_location(self):
        train = make_slice_set(8, seed=7)
        val = make_slice_set(4, seed=8, prefix="v")
        model = self.small_model()
        model.output.bias[...] = np.nan
        cfg = T.TrainConfig(initial_lr=1.0, epochs=2, batch_size=4, seed=0)
        with pytest.raises(NumericError, match="logits at epoch 1, batch 1$"):
            T.fit(model, train, val, cfg, None)

    def test_non_finite_history_value_reported_with_epoch(self, monkeypatch):
        monkeypatch.setattr(T, "_eval_pass", nan_loss_eval_pass(T._eval_pass))
        cfg = T.TrainConfig(initial_lr=1e-3, epochs=2, batch_size=4, seed=0)
        with pytest.raises(NumericError, match="^non-finite history value at epoch 1$"):
            T.fit(self.small_model(), make_slice_set(8, seed=7),
                  make_slice_set(4, seed=8, prefix="v"), cfg, None)

    def test_best_model_tracked_with_earliest_tie(self):
        train = make_slice_set(12, seed=9)
        val = make_slice_set(6, seed=10, prefix="v")
        cfg = T.TrainConfig(initial_lr=1e-3, epochs=4, batch_size=4, seed=2)
        res = T.fit(self.small_model(), train, val, cfg, None)
        accs = [r.val_acc for r in res.history]
        assert res.best_epoch == accs.index(max(accs)) + 1

    def test_val_logits_are_predict_of_best(self):
        # the history pass of the best epoch ran on the weights ``best`` holds
        train = make_slice_set(12, seed=17)
        val = make_slice_set(6, seed=18, prefix="v")
        cfg = T.TrainConfig(initial_lr=1e-3, epochs=3, batch_size=4, seed=5)
        res = T.fit(self.small_model(), train, val, cfg, AugmentConfig())
        fresh = T.predict(res.best, val)
        assert res.val_logits.dtype == fresh.dtype and res.val_logits.shape == (6,)
        assert res.val_logits.tobytes() == fresh.tobytes()

    def test_inputs_left_as_loaded(self):
        # fit augments copies of its batch rows; no pass writes into a SliceSet
        train = make_slice_set(12, seed=19)
        val = make_slice_set(6, seed=20, prefix="v")
        before = train.x.tobytes(), val.x.tobytes()
        cfg = T.TrainConfig(initial_lr=1e-3, epochs=2, batch_size=4, seed=6)
        res = T.fit(self.small_model(), train, val, cfg,
                    AugmentConfig(width_shift_frac=0.5, height_shift_frac=0.5))
        T.predict(res.best, train)
        T.predict(res.final, val)
        assert (train.x.tobytes(), val.x.tobytes()) == before

    def test_history_train_columns_come_from_train_steps(self, monkeypatch):
        # 10 train slices in batches of 4 end on a partial batch of 2, so an
        # unweighted mean of batch losses would differ from the history's
        train = make_slice_set(10, seed=21)
        val = make_slice_set(6, seed=22, prefix="v")
        model = self.small_model()
        modes, steps = [], []
        forward, bce_loss = T.forward, T.bce_loss

        def recording_forward(m, x, mode="infer", dropout_rng=None, **kwargs):
            modes.append(mode)
            return forward(m, x, mode, dropout_rng, **kwargs)

        def recording_bce_loss(logits, labels):
            loss, grad = bce_loss(logits, labels)
            if modes[-1] == "train":  # the step's loss, not the validation pass's
                steps.append((loss, len(labels), int(np.sum(
                    T.logit_labels(logits, model.config.threshold) == labels))))
            return loss, grad

        monkeypatch.setattr(T, "forward", recording_forward)
        monkeypatch.setattr(T, "bce_loss", recording_bce_loss)
        cfg = T.TrainConfig(initial_lr=1e-2, epochs=2, batch_size=4, seed=7)
        res = T.fit(model, train, val, cfg, AugmentConfig())
        assert [n for _, n, _ in steps] == [4, 4, 2] * 2
        for epoch, rec in enumerate(res.history):
            batches = steps[3 * epoch:3 * epoch + 3]
            assert rec.train_loss == pytest.approx(
                sum(loss * n for loss, n, _ in batches) / len(train), rel=1e-12, abs=0)
            assert rec.train_acc == sum(c for _, _, c in batches) / len(train)

    def test_infer_passes_cover_only_validation(self, monkeypatch):
        train = make_slice_set(12, seed=23)
        val = make_slice_set(6, seed=24, prefix="v")
        rows = {"train": 0, "infer": 0}
        forward = T.forward

        def counting_forward(m, x, mode="infer", dropout_rng=None, **kwargs):
            rows[mode] += len(x)
            return forward(m, x, mode, dropout_rng, **kwargs)

        monkeypatch.setattr(T, "forward", counting_forward)
        cfg = T.TrainConfig(initial_lr=1e-3, epochs=3, batch_size=4, seed=8)
        T.fit(self.small_model(), train, val, cfg, None)
        assert rows == {"train": 3 * len(train), "infer": 3 * len(val)}

    def test_memory_peak_is_one_train_step(self):
        """2 epochs over 32 slices of 64x64 in batches of 16 peak within one
        isolated train step plus the two sets' bytes plus 1 MiB: room for what
        fit holds beside a step (the gathered batch and its augmented copy,
        the gradients, the best-model snapshot, the logits, the validation
        pass). The sets themselves are not counted. The step runs as ``fit``
        runs each batch, in a train plan (``plan_blocks(..., keep=True)``),
        here built inside the step: the plan's buffers are the block caches,
        so every batch of an epoch reuses them, and ``fit`` drops the plan
        before the epoch's validation pass. Measured: step 12,081,888 B, fit
        12,631,889 B. With the plan alive through the validation pass, fit
        measured 15,859,739 B, which fails here: that pass's infer plan then
        sat on top of the train plan. With the plan alive for the whole fit
        and a fresh ``dx`` per block: step 14,903,849 B, fit 15,811,967 B.
        Before ``fit`` had a plan, each block's cache was freed by its
        backward: step 11,904,735 B, fit 12,459,464 B, and 22,265,043 B with
        the previous batch's caches kept alive through the next forward,
        which fails here too. (With the caches compact, before blocks handed
        each other phase planes: step 9,714,165 B, fit 10,289,790 B.)"""
        model = M.build_model(M.ModelConfig(input_height=64, input_width=64), seed=6)
        train = make_slice_set(32, h=64, w=64, seed=25)
        val = make_slice_set(32, h=64, w=64, seed=26, prefix="v")
        x, y = train.x[:16], train.labels[:16]

        def step():
            plan = M.plan_blocks(model, len(x), x.dtype, keep=True)
            _, caches = M.forward(model, x, "train", SplitMixStream(0, TAG_DROPOUT, 0, np.arange(16)),
                                  plan=plan)
            M.backward(model, caches, T.bce_loss(caches.logits, y)[1].astype(x.dtype))

        step()
        peaks = []
        for run in (step, lambda: T.fit(model, train, val, T.TrainConfig(epochs=2, seed=3),
                                        AugmentConfig())):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        step_peak, fit_peak = peaks
        bound = step_peak + train.x.nbytes + val.x.nbytes + (1 << 20)
        assert fit_peak <= bound, peaks


class TestHistoryCsv:
    def test_exact_header_and_rows(self, tmp_path):
        path = tmp_path / "h.csv"
        T.write_history(path, [T.EpochRecord(1, 1e-4, 0.5, 0.75, 0.6, 0.5)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,lr,train_loss,train_acc,val_loss,val_acc"
        assert lines[1] == "1,0.0001,0.5,0.75,0.6,0.5"


class TestEvaluate:
    def test_perfect_predictor(self):
        train = make_slice_set(20, seed=11)
        model = M.build_model(M.ModelConfig(input_height=8, input_width=8), seed=1)

        # train briefly so the model separates this easy set
        cfg = T.TrainConfig(initial_lr=3e-3, epochs=30, batch_size=10, seed=3)
        val = make_slice_set(8, seed=12, prefix="v")
        res = T.fit(model, train, val, cfg, None)
        counts, loss = T.evaluate(res.best, train)
        assert counts.total == 20
        assert np.isfinite(loss)

    def test_counts_partition_dataset(self):
        ds = make_slice_set(10, seed=13)
        model = M.build_model(M.ModelConfig(input_height=8, input_width=8), seed=4)
        counts, _ = T.evaluate(model, ds)
        assert counts.total == 10

    def test_constant_half_prob_boundary(self):
        ds = make_slice_set(10, seed=14)
        model = M.build_model(M.ModelConfig(input_height=8, input_width=8), seed=5)
        for _, arr in model.named_parameters():
            arr[...] = 0.0
        counts, _ = T.evaluate(model, ds)
        # prob 0.5 >= threshold: everything predicted positive
        assert counts.fn == 0 and counts.tn == 0
        assert counts.tp + counts.fp == 10

    def test_labels_follow_float32_sigmoid(self):
        # float32 sigmoid rounds a logit this close to 0 up to exactly 0.5
        logits = np.array([-3e-8, -1e-3, 0.0], dtype=np.float32)
        assert T.logit_labels(logits, 0.5).tolist() == [1, 0, 1]

    def test_empty_dataset_rejected(self):
        ds = make_slice_set(4, seed=15)
        empty = SliceSet(x=ds.x[:0], labels=ds.labels[:0], subject_ids=[], slice_keys=[])
        model = M.build_model(M.ModelConfig(input_height=8, input_width=8), seed=6)
        with pytest.raises(DataError):
            T.evaluate(model, empty)


def _slice_bytes(model, dataset):
    """Bytes of one slice's largest block output."""
    cfg = model.config
    return dataset.x.itemsize * max(
        c * h * w for c, (h, w) in zip(cfg.channel_plan, cfg.spatial_dims()))


class TestPredict:
    MODELS = {size: M.build_model(M.ModelConfig(input_height=size, input_width=size), seed=7)
              for size in (8, 16, 32)}

    @settings(max_examples=30, deadline=None)
    @given(size=st.sampled_from([8, 16, 32]),
           n_and_step=st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n),
                                                                     st.integers(1, n))))
    def test_logits_equal_per_slice_forwards(self, size, n_and_step):
        n, step = n_and_step
        model = self.MODELS[size]
        ds = make_slice_set(n, h=size, w=size, seed=n)
        with mock.patch.object(T, "_INFER_BUDGET_BYTES", step * _slice_bytes(model, ds)):
            logits = T.predict(model, ds)
        alone = [M.forward(model, ds.x[i:i + 1], "infer")[1].logits for i in range(n)]
        assert logits.tobytes() == np.concatenate(alone).tobytes()
        assert logits.dtype == alone[0].dtype and logits.shape == (n,)

    def test_folds_each_batchnorm_once(self):
        """Four micro-batches, and each block's batchnorm is folded into its
        conv once, in block order: the micro-batches share the folded model."""
        model = self.MODELS[8]
        ds = make_slice_set(7, seed=5)
        folds = []
        fold = layers.fold_batchnorm

        def counted(conv, norm, *args):
            folds.append(norm)
            return fold(conv, norm, *args)

        with mock.patch.object(T, "_INFER_BUDGET_BYTES", 2 * _slice_bytes(model, ds)), \
                mock.patch.object(layers, "fold_batchnorm", counted):
            logits = T.predict(model, ds)
        assert [id(norm) for norm in folds] == [id(b.norm) for b in model.blocks]
        assert logits.tobytes() == T.predict(model, ds).tobytes()

    def test_builds_its_buffers_once(self):
        """Over 4 or 16 micro-batches ``predict`` builds one plan, a block plan
        per block, and every micro-batch runs in it."""
        model = self.MODELS[8]
        built = {}
        block_plan = layers.SepConvPlan

        def counted(*args, **kwargs):
            built[n] += 1
            return block_plan(*args, **kwargs)

        for n in (4, 16):
            built[n] = 0
            ds = make_slice_set(2 * n, seed=n)
            with mock.patch.object(T, "_INFER_BUDGET_BYTES", 2 * _slice_bytes(model, ds)), \
                    mock.patch.object(layers, "SepConvPlan", counted):
                logits = T.predict(model, ds)
            assert logits.tobytes() == T.predict(model, ds).tobytes()
        assert built == {4: len(model.blocks), 16: len(model.blocks)}

    def test_memory_peak_is_one_micro_batch(self):
        """The budget holds at most four 128x128 slices per micro-batch, so 64
        slices peak at most at a four-slice plan, as ``infer_plan_bytes``
        counts it from the config, plus 640 KiB: the folded kernels and their
        cast copies in the plan, the head's float64 products and the plan's
        views and objects. Measured 4,925,976 B for a 4,504,096 B plan; with
        phase planes of every block's own, 5,933,792 B for a 5,628,504 B plan;
        with per-call buffers and 8-slice micro-batches, 7,212,752 B. The
        set's own ``x`` is not counted."""
        cfg = M.ModelConfig(input_height=128, input_width=128)
        model = M.build_model(cfg, seed=6)
        ds = make_slice_set(64, h=128, w=128, seed=3)
        T.predict(model, ds)
        tracemalloc.start()
        try:
            T.predict(model, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= infer_plan_bytes(cfg, 4, layers._CHUNK_BYTES) + (640 << 10)

    def test_failure_names_slices_of_micro_batch(self):
        model = M.build_model(M.ModelConfig(input_height=8, input_width=8), seed=8)
        model.hidden.weight[0, 0] = np.inf
        ds = make_slice_set(5, seed=9)
        with mock.patch.object(T, "_INFER_BUDGET_BYTES", 2 * _slice_bytes(model, ds)):
            with np.errstate(invalid="ignore"):
                with pytest.raises(NumericError) as info:
                    T.predict(model, ds)
        assert str(info.value) == ("forward pass produced non-finite logits "
                                   "in slices s000#0 to s001#0")


@pytest.fixture(scope="module")
def manifest_128(tmp_path_factory):
    """64 generated slices at 128x128: 4 subjects per class, 8 slices each."""
    return generate_synthetic(4, 8, 128, 128, seed=3, out_dir=tmp_path_factory.mktemp("d128"))


@pytest.fixture(scope="module")
def manifest_16(tmp_path_factory):
    """10 generated slices at 16x16: 5 subjects per class, 1 slice each."""
    return generate_synthetic(5, 1, 16, 16, seed=4, out_dir=tmp_path_factory.mktemp("d16"))


class TestStreamedEvaluate:
    """``evaluate`` over a set whose ``x`` is its ``SliceReader``, as ``sliceforge
    evaluate`` loads it."""

    def test_memory_peak_is_one_micro_batch(self, manifest_128):
        """Loading and evaluating 16 or 64 slices peak alike: one micro-batch's
        plan, as ``TestPredict`` bounds it, plus its input and a few slices'
        read buffers; the set's size adds nothing. Measured 5,584,040 and
        5,597,424 B; with phase planes of every block's own, 6,583,456 and
        6,599,168 B."""
        cfg = M.ModelConfig(input_height=128, input_width=128)
        model = M.build_model(cfg, seed=6)
        keys = manifest_128.slice_keys()
        warm = load_slice_set(manifest_128, keys[:1], materialize=False)
        per_slice, slice_bytes = _slice_bytes(model, warm), warm.x.itemsize * 128 * 128
        step = T._INFER_BUDGET_BYTES // per_slice
        T.evaluate(model, warm)
        peaks = {}
        for n in (16, 64):
            tracemalloc.start()
            try:
                T.evaluate(model, load_slice_set(manifest_128, keys[:n], materialize=False))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[64] - peaks[16]) < step * slice_bytes
        plan = infer_plan_bytes(cfg, 4, layers._CHUNK_BYTES)
        assert peaks[64] <= plan + (640 << 10) + (step + 4) * slice_bytes

    @settings(max_examples=30, deadline=None)
    @given(n_and_step=st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n),
                                                                     st.integers(1, n))))
    def test_same_counts_and_loss_as_materialized(self, manifest_16, n_and_step):
        n, step = n_and_step
        keys = manifest_16.slice_keys()[:n]
        model = TestPredict.MODELS[16]
        ds = load_slice_set(manifest_16, keys, materialize=False)
        with mock.patch.object(T, "_INFER_BUDGET_BYTES", step * _slice_bytes(model, ds)):
            streamed = T.evaluate(model, ds)
        loaded = T.evaluate(model, load_slice_set(manifest_16, keys))
        assert streamed[0] == loaded[0]
        assert streamed[1].hex() == loaded[1].hex()


class TestSubjectVote:
    def test_majority_and_tie(self):
        ds = make_slice_set(6, seed=16)
        model = M.build_model(M.ModelConfig(input_height=8, input_width=8), seed=7)
        for _, arr in model.named_parameters():
            arr[...] = 0.0
        pred = T.logit_labels(T.predict(model, ds), model.config.threshold)
        counts = T.evaluate_subject_vote(ds, pred)
        # all probs 0.5 -> all votes positive -> positives correct, negatives wrong
        assert counts.fn == 0 and counts.tn == 0
        assert counts.tp + counts.fp == 6

    def test_hand_built_predictions(self):
        # a (label 1): 2 of 3 slices positive -> positive vote, tp
        # b (label 0): 2 of 4, a tie -> positive vote, fp
        # c (label 1): 1 of 3, its slices interleaved with d's -> negative, fn
        # d (label 0): 0 of 2 -> negative, tn
        sids = ["a", "a", "a", "b", "b", "b", "b", "c", "d", "c", "d", "c"]
        label_of = {"a": 1, "b": 0, "c": 1, "d": 0}
        ds = SliceSet(
            x=np.zeros((len(sids), 1, 2, 2), dtype=np.float32),
            labels=np.array([label_of[s] for s in sids], dtype=np.int64),
            subject_ids=sids,
            slice_keys=[f"{s}#{i}" for i, s in enumerate(sids)],
        )
        pred = [1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 0]
        assert T.evaluate_subject_vote(ds, pred) == ConfusionCounts(tp=1, fp=1, tn=1, fn=1)
        with pytest.raises(ShapeError):
            T.evaluate_subject_vote(ds, pred[:-1])


class TestLearning:
    """One subject-level fold of the generated two-class data, trained with a
    learning rate large enough for a desk-scale step budget (the default 1e-4
    recipe needs hundreds of steps per epoch), must separate the classes on
    its validation subjects. The fold is scored through ``predict`` on the
    final weights, so infer mode (batchnorm folded into the conv) is what
    gets checked, and no epoch is picked by validation accuracy."""

    # 20 epochs of 4 steps; at 10 epochs seeds 4, 7, 9 and 10 of 1-10 failed the bound.
    # The bound held on seeds 101-110 and on the fresh seeds 201-210
    # (accuracy 0.75-1.0, MCC 0.58-1.0 on the final weights).
    LR = 5e-2
    EPOCHS = 20
    SEED = 201

    def test_one_fold_learns(self, tmp_path):
        manifest = generate_synthetic(8, 4, 16, 16, seed=self.SEED, out_dir=tmp_path)
        fold = kfold_split(manifest, 2, seed=self.SEED, stratified=True).folds[0]
        train_set, val_set = load_slice_set(manifest, fold.train), load_slice_set(manifest, fold.val)
        model = M.build_model(M.ModelConfig(16, 16), seed=self.SEED)
        cfg = T.TrainConfig(initial_lr=self.LR, epochs=self.EPOCHS, batch_size=8, seed=self.SEED)
        result = T.fit(model, train_set, val_set, cfg, AugmentConfig())
        counts, _ = T.score(T.predict(result.final, val_set), val_set.labels, 0.5)
        report = compute_metrics(counts)
        assert report.accuracy >= 0.75, counts
        assert report.mcc >= 0.5, counts
