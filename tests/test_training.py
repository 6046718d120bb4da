import math

import numpy as np
import pytest

from sliceforge import model as M
from sliceforge import training as T
from sliceforge.data import AugmentConfig, SliceSet, generate_synthetic, load_slice_set
from sliceforge.errors import ConfigError, DataError, NumericError, ShapeError
from sliceforge.metrics import ConfusionCounts, compute_metrics
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
        for r1, r2 in zip(res1.history.records, res2.history.records):
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
        with pytest.raises(NumericError, match="probabilities at epoch 1, batch 1$"):
            T.fit(model, train, val, cfg, None)

    def test_best_model_tracked_with_earliest_tie(self):
        train = make_slice_set(12, seed=9)
        val = make_slice_set(6, seed=10, prefix="v")
        cfg = T.TrainConfig(initial_lr=1e-3, epochs=4, batch_size=4, seed=2)
        res = T.fit(self.small_model(), train, val, cfg, None)
        accs = [r.val_acc for r in res.history.records]
        assert res.best_epoch == accs.index(max(accs)) + 1

    def test_val_logits_are_predict_of_best(self):
        # history batches of 4 split the 6 validation slices 4 + 2; predict's
        # default batch takes them in one, and infer logits must not notice
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


class TestHistoryCsv:
    def test_exact_header_and_rows(self, tmp_path):
        hist = T.History()
        hist.append(T.EpochRecord(1, 1e-4, 0.5, 0.75, 0.6, 0.5))
        path = tmp_path / "h.csv"
        hist.write_csv(path)
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
