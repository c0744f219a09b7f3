import json

import numpy as np
import pytest

from gridevade import detector as det, neural
from gridevade.detector import (
    DetectorConfig,
    DetectorModel,
    evaluate_detector,
    featurize_window,
    load_detector,
    posterior,
    save_detector,
    train_detector,
)
from gridevade.grid_traces import generate_trace, windows


def zero_weight_model(window=10, bus_count=9):
    net = neural.init_mlp([window * bus_count, 8, 1], ["relu", "sigmoid"], seed=0)
    for w in net.weights:
        w[...] = 0.0
    return DetectorModel(net=net, window=window, bus_count=bus_count)


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
            train_detector(windows, DetectorConfig(window=5), bus_count=3)

    def test_linearly_separable_toy(self):
        rng = np.random.default_rng(0)
        windows = []
        for _ in range(100):
            lbl = int(rng.integers(2))
            base = 1.0 - 0.05 * lbl  # sagged windows labeled 1
            windows.append((base + rng.normal(0, 0.002, size=(5, 3)), lbl))
        cfg = DetectorConfig(window=5, hidden=(8,), epochs=200, seed=0)
        model, _ = train_detector(windows, cfg, bus_count=3)
        correct = sum(
            (posterior(model, featurize_window(w)) >= 0.5) == bool(lbl)
            for w, lbl in windows)
        assert correct / len(windows) >= 0.99

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        windows = [(1.0 + rng.normal(0, 0.01, size=(3, 2)), int(i % 2))
                   for i in range(40)]
        cfg = DetectorConfig(window=3, hidden=(4,), epochs=10, seed=7)
        m1, l1 = train_detector(windows, cfg, bus_count=2)
        m2, l2 = train_detector(windows, cfg, bus_count=2)
        assert l1 == l2
        assert all(np.array_equal(a, b) for a, b in zip(m1.net.weights, m2.net.weights))

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


class TestEvaluateDetector:
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
