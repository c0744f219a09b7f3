import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gridevade import detector as det, neural
from gridevade.detector import (
    DetectorModel,
    detection_delay,
    evaluate_detector,
    featurize_window,
    load_detector,
    posterior,
    save_detector,
    train_detector,
)
from gridevade.grid_traces import MeasurementTrace, generate_trace, split_dataset, windows

from conftest import DELAY_CASES, shipped


def detector_config(**kw):
    """The shipped detector config at seed 0, with `kw` laid over it."""
    return replace(shipped().detector_config, **{"seed": 0, **kw})


def zero_weight_model(window=10, bus_count=9):
    net = neural.init_mlp([window * bus_count, 8, 1], ["relu", "sigmoid"], seed=0)
    for w in net.weights:
        w[...] = 0.0
    return DetectorModel(net=net, window=window, bus_count=bus_count)


def voltage_sign_model():
    """A window-1, 1-bus detector that flags exactly the frames above 1 pu."""
    net = neural.init_mlp([1, 1], ["sigmoid"], seed=0)
    net.weights[0][...] = 100.0
    return DetectorModel(net=net, window=1, bus_count=1)


def flagged_trace(labels, flagged):
    """A 1-bus trace at 0.1 s per frame that `voltage_sign_model` flags at `flagged`."""
    labels = np.asarray(labels)
    frames = np.where(np.asarray(flagged, dtype=bool), 1.05, 0.95)[:, None]
    return MeasurementTrace(times=np.arange(len(labels)) * 0.1, frames=frames, labels=labels)


class TestFeaturize:
    def test_nominal_frames_give_zero_features(self, default_scenario):
        tr = generate_trace(default_scenario.with_seed(0))
        feats = featurize_window(np.ones((10, 9)))
        assert np.allclose(feats, 0.0)
        assert feats.shape == (90,)

    def test_window_one_is_normalized_frame(self, default_scenario):
        tr = generate_trace(default_scenario.with_seed(0))
        feats = featurize_window(windows(tr.frames, 1)[5])
        assert np.allclose(feats, (tr.frames[5] - 1.0) / 0.1)

    def test_feature_length(self, default_scenario):
        tr = generate_trace(default_scenario.with_seed(0))
        assert featurize_window(windows(tr.frames, 10)[11]).shape == (90,)

    def test_stack_equals_row_by_row(self, default_scenario):
        tr = generate_trace(default_scenario.with_seed(0))
        stack = windows(tr.frames, 10)
        feats = featurize_window(stack)
        assert feats.shape == (91, 90)
        assert np.array_equal(feats, np.array([featurize_window(w) for w in stack]))

    def test_input_is_not_written(self, default_scenario):
        frames = generate_trace(default_scenario.with_seed(0)).frames
        kept = frames.copy()
        feats = featurize_window(frames[20:30])
        feats += 1.0
        featurize_window(frames.reshape(10, 10, 9))
        assert np.array_equal(frames, kept)

    def test_identical_frames_permutation_invariant(self):
        block = np.ones((10, 9)) * 1.02
        swapped = block.copy()
        swapped[[2, 7]] = swapped[[7, 2]]
        assert np.array_equal(featurize_window(block), featurize_window(swapped))


class TestTrainDetector:
    def test_single_class_rejected(self):
        windows = [(np.ones((5, 3)), 0) for _ in range(20)]
        with pytest.raises(ValueError, match="single class"):
            train_detector(windows, detector_config(window=5), bus_count=3)

    def test_linearly_separable_toy(self):
        rng = np.random.default_rng(0)
        windows = []
        for _ in range(100):
            lbl = int(rng.integers(2))
            base = 1.0 - 0.05 * lbl  # sagged windows labeled 1
            windows.append((base + rng.normal(0, 0.002, size=(5, 3)), lbl))
        cfg = detector_config(window=5, hidden=(8,), epochs=200, seed=0)
        model, _ = train_detector(windows, cfg, bus_count=3)
        correct = sum(
            (posterior(model, featurize_window(w)) >= 0.5) == bool(lbl)
            for w, lbl in windows)
        assert correct / len(windows) >= 0.99

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        windows = [(1.0 + rng.normal(0, 0.01, size=(3, 2)), int(i % 2))
                   for i in range(40)]
        cfg = detector_config(window=3, hidden=(4,), epochs=10, seed=7)
        m1, l1 = train_detector(windows, cfg, bus_count=2)
        m2, l2 = train_detector(windows, cfg, bus_count=2)
        assert l1 == l2
        assert all(np.array_equal(a, b) for a, b in zip(m1.net.weights, m2.net.weights))

    def test_pinned_loss_and_weights(self, default_scenario):
        """Loss and parameter bits of one small seeded training. Computing the
        loss in the last epoch only, or normalising the stacked windows in
        place, must move neither."""
        traces = [generate_trace(default_scenario.with_seed(s)) for s in range(4)]
        cfg = detector_config(hidden=(16, 8), epochs=3, batch_size=32, seed=11)
        train_set, _ = split_dataset(traces, cfg.window, 0.75, seed=2)
        model, loss = train_detector(train_set, cfg, bus_count=9)
        assert loss.hex() == "0x1.5dad0c967dd74p-1"
        assert hashlib.sha256(model.net.params.tobytes()).hexdigest() == (
            "47f651bf3335d94f92233c5863dda4feafc9cd3d911251b5241325af567069bf")

    def test_training_does_not_write_its_windows(self, default_scenario):
        trace = generate_trace(default_scenario)
        before = trace.frames.copy()
        train_set, _ = split_dataset([trace, trace], 10, 0.5, seed=0)
        train_detector(train_set, detector_config(hidden=(4,), epochs=1), bus_count=9)
        assert np.array_equal(trace.frames, before)

    def test_zero_epochs_give_nan_loss_without_warning(self):
        windows = [(1.0 + 0.01 * i * np.ones((3, 2)), i % 2) for i in range(8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, loss = train_detector(windows, detector_config(window=3, epochs=0), bus_count=2)
        assert np.isnan(loss)

    def test_default_scenario_holdout_accuracy(self, trained_detector, default_scenario):
        holdout = [generate_trace(default_scenario.with_seed(s)) for s in range(100, 105)]
        report = evaluate_detector(trained_detector, holdout)
        assert report.frame_accuracy >= 0.95


class TestPosterior:
    def test_range(self, trained_detector, default_scenario):
        tr = generate_trace(default_scenario.with_seed(3))
        for t in (9, 40, 70, 99):
            p = posterior(trained_detector, featurize_window(windows(tr.frames, 10)[t - 9]))
            assert 0.0 <= p <= 1.0

    def test_zero_weight_net_outputs_half(self):
        model = zero_weight_model()
        assert posterior(model, np.zeros(90)) == pytest.approx(0.5)

    def test_post_fault_window_detected(self, trained_detector, default_scenario):
        tr = generate_trace(default_scenario.with_seed(4))
        p = posterior(trained_detector, featurize_window(windows(tr.frames, 10)[51]))
        assert p > trained_detector.threshold

    def test_dimension_error(self, trained_detector):
        with pytest.raises(ValueError):
            posterior(trained_detector, np.zeros(10))


class TestDetectionDelay:
    def test_counts_from_the_first_post_fault_frame_of_the_series(self):
        times = np.arange(4.0)
        labels = np.array([1, 1, 1, 1])
        assert detection_delay(times, labels, np.array([False, False, True, True])) == 2.0
        assert detection_delay(times[1:], labels[1:], np.array([False, True, True])) == 1.0


class TestEvaluateDetector:
    @pytest.mark.parametrize("labels, flagged, delay", DELAY_CASES)
    def test_delays_follow_detection_delay(self, labels, flagged, delay):
        report = evaluate_detector(voltage_sign_model(), [flagged_trace(labels, flagged)])
        assert report.delays == [delay]
        assert report.detection_delay == delay

    def test_rates_pool_the_frames_of_all_traces(self):
        # 2 of 4 frames right (1 of 3 pre-fault flagged), then 10 of 10.
        short = flagged_trace([0, 0, 0, 1], [1, 0, 0, 0])
        long = flagged_trace([0] * 5 + [1] * 5, [0] * 5 + [1] * 5)
        report = evaluate_detector(voltage_sign_model(), [short, long])
        assert report.frame_accuracy == 12 / 14
        assert report.false_positive_rate == 1 / 8
        assert report.delays == [None, 0.0]
        assert report.detection_delay == 0.0

    def test_no_traces_are_refused(self):
        with pytest.raises(ValueError, match="no traces to evaluate"):
            evaluate_detector(voltage_sign_model(), [])

    def test_trained_model_metrics(self, trained_detector, default_scenario):
        traces = [generate_trace(default_scenario.with_seed(s)) for s in range(200, 205)]
        report = evaluate_detector(trained_detector, traces)
        assert 0 <= report.frame_accuracy <= 1
        assert 0 <= report.false_positive_rate <= 1
        assert report.detection_delay is not None
        assert report.detection_delay <= 0.5

    def test_constant_zero_predictor_not_detected(self, default_scenario):
        model = zero_weight_model()
        model.net.biases[-1][...] = -20.0  # sigmoid ~ 0 everywhere
        tr = generate_trace(default_scenario.with_seed(5))
        report = evaluate_detector(model, [tr])
        assert report.delays == [None]
        assert report.detection_delay is None

    def test_always_flagging_predictor_zero_delay(self, default_scenario):
        # the zero-weight net predicts 0.5 -> flagged everywhere (>= threshold)
        tr = generate_trace(default_scenario.with_seed(6))
        report = evaluate_detector(zero_weight_model(), [tr])
        assert report.false_positive_rate == 1.0
        assert report.delays == [0.0]

    def test_trained_model_accuracy_one_gives_zero_delay(self, trained_detector,
                                                         default_scenario):
        tr = generate_trace(default_scenario.with_seed(8))
        report = evaluate_detector(trained_detector, [tr])
        if report.frame_accuracy == 1.0:
            assert report.delays == [0.0]


class TestCheckpointAndReport:
    def test_detector_round_trip(self, trained_detector, tmp_path):
        p = tmp_path / "detector.json"
        save_detector(trained_detector, p)
        back = load_detector(p)
        assert back.window == trained_detector.window
        assert back.threshold == trained_detector.threshold
        x = np.zeros(90)
        assert posterior(back, x) == posterior(trained_detector, x)

    @pytest.mark.parametrize("key, value", [("norm_center", 0.0), ("norm_scale", 0.2)])
    def test_checkpoint_of_other_normalization_is_refused(self, trained_detector, tmp_path,
                                                          key, value):
        p = tmp_path / "detector.json"
        save_detector(trained_detector, p)
        doc = json.loads(p.read_text())
        doc["meta"][key] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="was trained on features"):
            load_detector(p)
