import numpy as np
import pytest

from gridevade.grid_traces import (
    BusCase,
    TraceScenario,
    default_case,
    generate_trace,
    load_case,
    split_dataset,
    windows,
)


def flat_case(n=9, nominal=1.0, coupling=1.0):
    return BusCase(bus_count=n, nominal_voltage=np.full(n, nominal),
                   fault_coupling=np.full(n, coupling))


def scenario(**kw):
    defaults = dict(case=flat_case(), dt=0.1, horizon=10.0, fault_start=5.4,
                    fault_bus=4, fault_depth=0.2, fault_freq=1.5,
                    fault_damping=1.0, sensor_noise_std=0.002, seed=0)
    defaults.update(kw)
    return TraceScenario(**defaults)


class TestBusCase:
    def test_length_mismatch_names_field(self):
        with pytest.raises(ValueError, match="nominal_voltage"):
            BusCase(bus_count=3, nominal_voltage=[1.0, 1.0],
                    fault_coupling=[1.0, 1.0, 1.0])

    def test_voltage_bounds(self):
        with pytest.raises(ValueError, match="nominal_voltage"):
            flat_case(nominal=1.5)

    def test_coupling_bounds(self):
        with pytest.raises(ValueError, match="fault_coupling"):
            flat_case(coupling=1.2)


class TestScenarioValidation:
    @pytest.mark.parametrize("kw,field", [
        (dict(dt=0.0), "dt"),
        (dict(dt=11.0), "dt"),
        (dict(fault_start=10.0), "fault_start"),
        (dict(fault_bus=12), "fault_bus"),
        (dict(fault_depth=-0.1), "fault_depth"),
        (dict(sensor_noise_std=-1e-3), "sensor_noise_std"),
    ])
    def test_rejects_naming_field(self, kw, field):
        with pytest.raises(ValueError, match=field):
            scenario(**kw)


class TestGenerateTrace:
    def test_no_noise_no_fault_equals_nominal(self):
        tr = generate_trace(scenario(sensor_noise_std=0.0, fault_depth=0.0))
        assert np.array_equal(tr.frames, np.ones((100, 9)))

    def test_labels_flip_at_fault_start(self):
        tr = generate_trace(scenario())
        assert np.array_equal(tr.labels, (tr.times >= 5.4).astype(int))
        # first frame at t >= 5.4 is index 54
        assert tr.labels[53] == 0 and tr.labels[54] == 1

    def test_sag_at_onset_direct_substitution(self):
        # coupling 1, depth 0.2, damping 0, freq 0, tau=0 -> nominal - 0.2
        tr = generate_trace(scenario(sensor_noise_std=0.0, fault_damping=0.0,
                                     fault_freq=0.0))
        assert tr.frames[54, 0] == pytest.approx(1.0 - 0.2, abs=1e-15)

    def test_deterministic_per_seed(self):
        a = generate_trace(scenario(seed=42))
        b = generate_trace(scenario(seed=42))
        assert np.array_equal(a.frames, b.frames)

    def test_seed_changes_noise(self):
        a = generate_trace(scenario(seed=1))
        b = generate_trace(scenario(seed=2))
        assert not np.array_equal(a.frames, b.frames)

    def test_noise_std_matches_requested(self):
        sc = scenario(horizon=1500.0, fault_start=1400.0, sensor_noise_std=0.005)
        tr = generate_trace(sc)
        pre = tr.frames[tr.labels == 0] - 1.0
        assert pre.size >= 10_000
        assert np.std(pre) == pytest.approx(0.005, rel=0.05)

    def test_monotone_envelope_when_damped(self):
        tr = generate_trace(scenario(sensor_noise_std=0.0, fault_freq=0.0,
                                     fault_damping=2.0))
        dev = 1.0 - tr.frames[54:, 0]
        assert np.all(np.diff(dev) <= 1e-15)


class TestCaseFile:
    def test_default_case_is_nine_bus(self):
        case = default_case()
        assert case.bus_count == 9
        assert np.all((case.nominal_voltage >= 0.9) & (case.nominal_voltage <= 1.1))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "case.txt"
        p.write_text("bus_count = 9\n"
                     "nominal_voltage = " + ", ".join(["1.0"] * 9) + "\n"
                     "fault_coupling = " + ", ".join(["0.5"] * 9) + "\n")
        case = load_case(p)
        assert np.array_equal(case.nominal_voltage, np.ones(9))

    def test_out_of_bound_voltage_rejected(self, tmp_path):
        p = tmp_path / "case.txt"
        p.write_text("bus_count = 1\nnominal_voltage = 1.5\nfault_coupling = 1.0\n")
        with pytest.raises(ValueError, match="nominal_voltage"):
            load_case(p)

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "case.txt"
        p.write_text("bus_count = 1\nnominal_voltage = abc\nfault_coupling = 1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_case(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "case.txt"
        p.write_text("bus_count = 1\n")
        with pytest.raises(ValueError, match="missing"):
            load_case(p)


class TestSplitDataset:
    def make_traces(self, n, seed0=0):
        return [generate_trace(scenario(seed=s)) for s in range(seed0, seed0 + n)]

    def test_window_count(self):
        train, test = split_dataset(self.make_traces(1), window=10, ratio=0.5)
        assert len(train) + len(test) == 91

    def test_trace_level_disjoint_split(self):
        traces = self.make_traces(10)
        train, test = split_dataset(traces, window=10, ratio=0.8, seed=3)
        # 8 train traces, 2 test traces, 91 windows each
        assert len(train) == 8 * 91
        assert len(test) == 2 * 91

    def test_all_prefault_trace_all_zero_labels(self):
        tr = generate_trace(scenario(fault_start=9.0))
        prefault = type(tr)(times=tr.times[:50], frames=tr.frames[:50],
                            labels=tr.labels[:50])
        train, test = split_dataset([prefault, prefault], window=5, ratio=0.5)
        assert all(lbl == 0 for _, lbl in train + test)

    def test_too_short_trace_rejected(self):
        tr = generate_trace(scenario())
        short = type(tr)(times=tr.times[:5], frames=tr.frames[:5], labels=tr.labels[:5])
        with pytest.raises(ValueError, match="too short"):
            split_dataset([short], window=10, ratio=0.5)

    def test_window_label_is_final_frame(self):
        tr = generate_trace(scenario())
        train, test = split_dataset([tr], window=10, ratio=0.99)
        # windows ending right before/at the fault carry the final-frame label
        for frames, lbl in train + test:
            assert frames.shape == (10, 9)
        assert [lbl for _, lbl in train + test] == tr.labels[9:].tolist()
        assert all(np.array_equal(frames, tr.frames[i : i + 10])
                   for i, (frames, _) in enumerate(train + test))


class TestWindows:
    def test_row_i_is_the_window_ending_at_frame_i_plus_w_minus_1(self):
        frames = generate_trace(scenario()).frames
        for w in (1, 4, 10, 100):
            view = windows(frames, w)
            assert view.shape == (101 - w, w, 9)
            for i in range(len(view)):
                assert np.array_equal(view[i], frames[i : i + w])

    def test_view_is_read_only(self):
        frames = generate_trace(scenario()).frames
        view = windows(frames, 10)
        assert np.shares_memory(view, frames)
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0] = 0.0
