import copy
import functools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import oracles
from eanet import tensor as T
from eanet.attention import ExpertTrace, HedgeState
from eanet.data import (SCENARIO_KINDS, Scene, SyntheticScenarioSpec, TrajectoryInstance,
                        frames_for_instances, generate_synthetic, load_dataset,
                        load_scene, synthetic_instances,
                        window_instances, write_scene)
from eanet.errors import ConfigError, DataError, ParseError
from eanet.gaussian import decode_gaussian


def scene_of(rows):
    """The `Scene` of (frame, agent, x, y) observations, each (frame,
    agent) pair observed once, in any order."""
    frame_ids, at_frame = np.unique([r[0] for r in rows], return_inverse=True)
    agent_ids, at_agent = np.unique([r[1] for r in rows], return_inverse=True)
    coords = np.zeros((len(frame_ids), len(agent_ids), 2))
    present = np.zeros(coords.shape[:2], dtype=bool)
    coords[at_frame, at_agent] = [r[2:] for r in rows]
    present[at_frame, at_agent] = True
    return Scene(frame_ids.astype(np.int64), agent_ids.astype(np.int64), coords, present)


def scene_rows(scene):
    """A scene's (frame, agent, x, y) observations as Python numbers, in
    the order `write_scene` writes them."""
    frames, agents = np.nonzero(scene.present)
    return [(f, a, x, y) for f, a, (x, y) in zip(scene.frame_ids[frames].tolist(),
                                                 scene.agent_ids[agents].tolist(),
                                                 scene.coords[frames, agents].tolist())]


def line_scene(agents, frames):
    return scene_of([(f, a, 0.5 * f + a, float(a))
                     for f in range(frames) for a in range(1, agents + 1)])


def test_scene_round_trip(tmp_path):
    path = tmp_path / "scene.txt"
    rows = [(0, 1, 1.25, -3.5), (0, 2, 0.0, 0.125), (1, 1, 2.0, 4.0)]
    write_scene(scene_of(rows), path)
    loaded = load_scene(path)
    assert scene_rows(loaded) == rows
    assert loaded.frame_ids.dtype == loaded.agent_ids.dtype == np.int64
    assert loaded.present.tolist() == [[True, True], [True, False]]


def test_load_scene_accepts_float_formatted_ids_and_crlf(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_bytes(b"0.0\t1.0\t1.000000\t2.000000\r\n10.0 2.0 3.0 4.0\r\n\r\n")
    loaded = load_scene(path)
    assert [(f, a) for f, a, _, _ in scene_rows(loaded)] == [(0, 1), (10, 2)]


def test_load_scene_rejects_ids_beyond_2_to_the_53(tmp_path):
    # Parsed through float, frames 2**53 and 2**53 + 1 were one frame, and
    # the scene windowed into one instance with agents [1, 2].
    path = tmp_path / "big.txt"
    path.write_text("9007199254740992 1 0 0\n9007199254740993 2 5 5\n"
                    "9007199254740994 1 1 1\n9007199254740994 2 6 6\n")
    with pytest.raises(ParseError, match="line 2: ids must be integers within"):
        load_scene(path)
    for big in ("-9007199254740993", "9007199254740993.0", "9.007199254740993e15", "1e400",
                "1e999999999"):
        for line in (f"{big} 2 5 5", f"7 {big} 5 5"):
            path.write_text(f"0 1 0 0\n{line}\n")
            with pytest.raises(ParseError, match="line 2: ids must be integers within"):
                load_scene(path)
    path.write_text("9007199254740992 -9007199254740992.0 0 0\n")
    loaded = load_scene(path)
    assert loaded.frame_ids.tolist() == [2 ** 53] and loaded.agent_ids.tolist() == [-2 ** 53]


def test_load_scene_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 1.0 2.0\n0 2 oops 2.0\n")
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert "line 2" in str(err.value)
    path.write_text("0 1 1.0 2.0\n0 2 3.0\n")
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert "line 2" in str(err.value)
    path.write_text("0 1.5 1.0 2.0\n")
    with pytest.raises(ParseError):
        load_scene(path)
    for bad in ("nan", "inf", "sNaN"):
        path.write_text(f"0 1 1.0 2.0\n{bad} 2 1.0 2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_scene(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_load_scene_rejects_non_finite_coordinates(tmp_path, bad):
    path = tmp_path / "bad.txt"
    for line in (f"0 2 {bad} 2.0", f"0 2 1.0 {bad}"):
        path.write_text(f"0 1 1.0 2.0\n{line}\n")
        with pytest.raises(ParseError, match="line 2: non-finite"):
            load_scene(path)


def test_load_scene_duplicate_observation(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("0 1 1.0 2.0\n0 1 1.0 2.5\n")
    with pytest.raises(DataError):
        load_scene(path)


def test_window_counts():
    assert len(window_instances(line_scene(1, 20))) == 1
    assert len(window_instances(line_scene(2, 25))) == 6
    assert len(window_instances(line_scene(1, 19))) == 0


def test_window_requires_full_presence():
    rows = scene_rows(line_scene(1, 40))
    # Second agent only exists for frames 5..14, never a full 20-frame span.
    rows += [(f, 2, 0.0, 0.0) for f in range(5, 15)]
    instances = window_instances(scene_of(rows))
    assert all(inst.agent_ids == [1] for inst in instances)


def test_window_brute_force_presence_scan():
    rng = np.random.default_rng(3)
    frames, span = 40, 20
    presence = rng.random((5, frames)) < 0.9
    rows = [(f, a + 1, float(f), float(a))
            for a in range(5) for f in range(frames) if presence[a, f]]
    instances = window_instances(scene_of(rows))
    by_start = {inst.start_frame: inst.agent_ids for inst in instances}
    for start in range(frames - span + 1):
        expected = [a + 1 for a in range(5) if presence[a, start:start + span].all()]
        if expected:
            assert by_start[start] == expected
        else:
            assert start not in by_start


def test_window_decimated_frame_ids():
    instances = window_instances(scene_of([(10 * f, 1, float(f), 0.0) for f in range(20)]))
    assert len(instances) == 1
    assert instances[0].start_frame == 0
    assert instances[0].obs_abs.shape == (1, 8, 2)


def test_instance_relative_arrays():
    inst = window_instances(line_scene(2, 20))[0]
    assert np.array_equal(inst.obs_rel[:, 0], np.zeros((2, 2)))
    # The same bits as the separate differences of the observed frames and
    # of the future frames behind the last observed one.
    assert np.array_equal(inst.obs_rel[:, 1:], np.diff(inst.obs_abs, axis=1))
    bridged = np.concatenate([inst.obs_abs[:, -1:], inst.fut_abs], axis=1)
    assert np.array_equal(inst.fut_rel, np.diff(bridged, axis=1))
    rebuilt = inst.obs_abs[:, -1:, :] + np.cumsum(inst.fut_rel, axis=1)
    assert np.allclose(rebuilt, inst.fut_abs, atol=1e-12)


def test_to_relative_round_trip_within_1e9():
    rng = np.random.default_rng(4)
    for _ in range(20):
        walk = np.cumsum(rng.normal(size=(3, 20, 2)), axis=1) + 100.0
        inst = TrajectoryInstance("walk", [1, 2, 3], 0, walk[:, :8], walk[:, 8:])
        rel = np.concatenate([inst.obs_rel, inst.fut_rel], axis=1)
        rebuilt = walk[:, :1] + np.cumsum(rel, axis=1)
        # rel[:, 0] is zero, so the origin row stays put.
        assert np.max(np.abs(rebuilt - walk)) < 1e-9


def test_instance_translation_helpers():
    inst = window_instances(line_scene(2, 20))[0]
    moved = inst.translated([10.0, -5.0])
    assert np.allclose(moved.obs_abs, inst.obs_abs + [10.0, -5.0])
    assert np.allclose(moved.obs_rel, inst.obs_rel)
    centred = inst.recentred()
    assert np.allclose(centred.obs_abs[:, -1].mean(axis=0), 0.0, atol=1e-12)


def test_oneway_noiseless_is_a_straight_line():
    spec = SyntheticScenarioSpec(kind="oneway", agents=1, speed=0.4,
                                 noise_std=0.0, extent=0.0, seed=1)
    for frame, _, x, y in scene_rows(generate_synthetic(spec, 10)):
        assert x == pytest.approx(0.4 * frame, abs=1e-12)
        assert y == pytest.approx(0.0, abs=1e-12)


def test_generation_is_deterministic(tmp_path):
    spec = SyntheticScenarioSpec(kind="stagger", agents=4, seed=77)
    a = generate_synthetic(spec, 50)
    b = generate_synthetic(spec, 50)
    assert scene_rows(a) == scene_rows(b)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_scene(a, p1)
    write_scene(b, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_circle_chord_length():
    spec = SyntheticScenarioSpec(kind="circle", agents=3, speed=0.5,
                                 noise_std=0.0, extent=10.0, seed=5)
    scene = generate_synthetic(spec, 30)
    radius, omega = 5.0, 0.1
    want = 2.0 * radius * math.sin(omega / 2.0)
    for arr in scene.coords.transpose(1, 0, 2):
        chords = np.linalg.norm(np.diff(arr, axis=0), axis=1)
        assert np.allclose(chords, want, atol=1e-9)
        assert np.allclose(np.linalg.norm(arr, axis=1), radius, atol=1e-9)


def heading_dispersion(scene):
    vecs = []
    for pts in scene.coords.transpose(1, 0, 2):
        steps = np.diff(pts, axis=0)
        keep = np.linalg.norm(steps, axis=1) > 1e-9
        vecs.append(steps[keep] / np.linalg.norm(steps[keep], axis=1, keepdims=True))
    unit = np.concatenate(vecs)
    return 1.0 - np.linalg.norm(unit.mean(axis=0))


def test_oneway_heading_dispersion_below_stagger():
    one = generate_synthetic(SyntheticScenarioSpec(kind="oneway", seed=9), 120)
    stag = generate_synthetic(SyntheticScenarioSpec(kind="stagger", seed=9), 120)
    assert heading_dispersion(one) < heading_dispersion(stag)


def test_spec_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticScenarioSpec(kind="zigzag"), 10)
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticScenarioSpec(agents=0), 10)
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticScenarioSpec(kind="circle", extent=0.0), 10)
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticScenarioSpec(noise_std=-0.1), 10)
    with pytest.raises(ConfigError):
        generate_synthetic(SyntheticScenarioSpec(), 0)


def test_frames_for_instances_matches_windowing():
    for n in (1, 2, 7):
        spec = SyntheticScenarioSpec(kind="oneway", agents=2, seed=n)
        assert len(window_instances(generate_synthetic(spec, frames_for_instances(n)))) == n


def test_span_errors_come_before_scene_generation():
    with pytest.raises(ConfigError, match="t_obs and t_pred"):
        frames_for_instances(5, 0, 3)
    with pytest.raises(ConfigError, match="t_obs and t_pred"):
        synthetic_instances(SyntheticScenarioSpec(), 1, t_obs=-20)


def test_synthetic_instances_count_and_agents():
    spec = SyntheticScenarioSpec(kind="stagger", agents=6, seed=2)
    instances = synthetic_instances(spec, 25)
    assert len(instances) == 25
    assert all(inst.n_agents == 6 for inst in instances)
    assert all(inst.t_obs == 8 and inst.t_pred == 12 for inst in instances)


def test_load_dataset_orders_by_start_then_file(tmp_path):
    p1 = tmp_path / "s1.txt"
    p2 = tmp_path / "s2.txt"
    write_scene(line_scene(1, 21), p1)
    write_scene(line_scene(1, 21), p2)
    data = load_dataset([p1, p2])
    assert [inst.start_frame for inst in data] == [0, 0, 1, 1]
    assert data[0].scene_id.endswith("s1.txt")
    assert data[1].scene_id.endswith("s2.txt")


def test_instance_shape_validation():
    cases = [
        ([1, 2], (2, 8, 3), (2, 12, 2)),
        ([1, 2], (2, 8, 2), (3, 12, 2)),
        ([1, 2], (2, 8, 2), (2, 2)),
        ([1, 2], (2, 0, 2), (2, 12, 2)),
        ([1, 2], (2, 8, 2), (2, 0, 2)),
        ([], (0, 8, 2), (0, 12, 2)),
        ([1, 2, 3], (2, 8, 2), (2, 12, 2)),
    ]
    for agent_ids, obs_shape, fut_shape in cases:
        with pytest.raises(DataError):
            TrajectoryInstance("x", agent_ids, 0, np.zeros(obs_shape), np.zeros(fut_shape))


def row_bits(rows):
    """Every field of every observation, floats by their exact bits and type."""
    return [(f, a, type(x), x.hex(), type(y), y.hex()) for f, a, x, y in rows]


def instance_fields(instances):
    """Every field of every instance; arrays by dtype, shape and bytes."""
    return [(inst.scene_id, inst.agent_ids, [type(a) for a in inst.agent_ids],
             inst.start_frame, type(inst.start_frame),
             *[(arr.dtype, arr.shape, arr.tobytes())
               for arr in (inst.obs_abs, inst.fut_abs, inst.obs_rel, inst.fut_rel)])
            for inst in instances]


@pytest.mark.parametrize("period", [1, 3, 10])
@pytest.mark.parametrize("noise_std", [0.0, 0.02, 0.2])
@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_scenes_equal_the_per_frame_oracle_bit_for_bit(kind, noise_std, period):
    for agents in (1, 7):
        for frames in sorted({1, 2, period, period + 1, 60}):
            spec = SyntheticScenarioSpec(kind=kind, agents=agents, noise_std=noise_std,
                                         period=period, seed=frames + agents)
            scene = generate_synthetic(spec, frames)
            rows = scene_rows(scene)
            assert row_bits(rows) == row_bits(oracles.generate_synthetic(spec, frames))
            for t_obs, t_pred in ((1, 1), (2, 3), (8, 12)):
                count = frames - t_obs - t_pred + 1
                assert instance_fields(window_instances(scene, t_obs, t_pred, "s")) == \
                    instance_fields(oracles.window_instances(rows, t_obs, t_pred, "s"))
                if count >= 1:
                    assert instance_fields(synthetic_instances(spec, count, t_obs, t_pred)) == \
                        instance_fields(oracles.synthetic_instances(spec, count, t_obs, t_pred))


def random_scene(rng):
    """Observations of a few agents, each present in alternating runs of
    1-14 frames, over increasing frame ids with steps of 1 to 3, in
    shuffled order."""
    frames = int(rng.integers(20, 60))
    frame_ids = np.cumsum(rng.integers(1, 4, size=frames)) * 10
    rows = []
    for agent in range(1, int(rng.integers(1, 6)) + 1):
        lengths = rng.integers(1, 15, size=frames)
        runs = np.repeat(np.arange(frames) % 2 == 0, lengths)[:frames]
        present = runs if rng.integers(2) else ~runs
        rows += [(int(f), agent, float(rng.normal()), float(rng.normal()))
                 for f in frame_ids[present]]
    return [rows[i] for i in rng.permutation(len(rows))]


def test_random_scene_windows_equal_the_oracle():
    rng = np.random.default_rng(27)
    recurred = gapped = False
    for _ in range(40):
        rows = random_scene(rng)
        frames = sorted({row[0] for row in rows})
        for t_obs, t_pred in ((1, 1), (2, 3), (3, 1), (4, 4)):
            want = oracles.window_instances(rows, t_obs, t_pred, "random")
            assert instance_fields(window_instances(scene_of(rows), t_obs, t_pred, "random")) == \
                instance_fields(want)
            sets = [tuple(inst.agent_ids) for inst in want]
            runs = [s for i, s in enumerate(sets) if i == 0 or s != sets[i - 1]]
            recurred |= len(runs) > len(set(runs))
            starts = [frames.index(inst.start_frame) for inst in want]
            gapped |= any(b - a > 1 for a, b in zip(starts, starts[1:]))
    assert recurred and gapped


def test_ragged_scene_windows_equal_the_oracle():
    # Decimated frame ids; agent 4 enters late, agent 2 leaves early and
    # agent 7 has a gap. The input is shuffled.
    rng = np.random.default_rng(11)
    life = {1: range(0, 25), 2: range(0, 12), 4: range(6, 25), 7: [*range(0, 9), *range(10, 25)]}
    rows = [(10 * f, a, float(rng.normal()), float(rng.normal()))
            for a, frames in life.items() for f in frames]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    scene = scene_of(rows)
    for t_obs, t_pred in ((2, 3), (4, 4), (8, 12)):
        assert instance_fields(window_instances(scene, t_obs, t_pred, "ragged")) == \
            instance_fields(oracles.window_instances(rows, t_obs, t_pred, "ragged"))
    assert {tuple(inst.agent_ids) for inst in window_instances(scene, 2, 3)} == \
        {(1, 2, 7), (1, 2), (1, 2, 4), (1, 4), (1, 4, 7)}
    inst = window_instances(scene, 2, 3)[2]
    assert inst.start_frame == 20 and inst.agent_ids == [1, 2, 7]


def test_a_ragged_scene_file_windows_like_the_oracle(tmp_path):
    # The file path end to end: shuffled lines, decimated frame ids, agent 3
    # entering late, agent 2 leaving early and agent 5 with a gap.
    rng = np.random.default_rng(28)
    life = {1: range(0, 60), 2: range(0, 28), 3: range(15, 60), 5: [*range(0, 22), *range(25, 60)]}
    lines = [f"{10 * f}\t{a}\t{rng.normal():.6f}\t{rng.normal():.6f}\n"
             for a, frames in life.items() for f in frames]
    path = tmp_path / "ragged.txt"
    path.write_text("".join(lines[i] for i in rng.permutation(len(lines))))
    rows = [(int(f), int(a), float(x), float(y)) for f, a, x, y in map(str.split, lines)]
    for t_obs, t_pred in ((2, 3), (4, 4), (8, 12)):
        want = oracles.window_instances(rows, t_obs, t_pred, str(path))
        assert len({tuple(inst.agent_ids) for inst in want}) > 2
        assert instance_fields(load_dataset([path], t_obs, t_pred)) == instance_fields(want)
    again = tmp_path / "again.txt"
    write_scene(load_scene(path), again)
    assert again.read_bytes() == "".join(sorted(lines, key=lambda line: tuple(
        int(field) for field in line.split()[:2]))).encode()


def run_scene(rng, span):
    """Observations whose complete-agent set changes every 1-3 windows.

    Each run of 1-3 windows has its own 1-3 agents, present over exactly
    the run's frames, so they are complete in its windows only; 0-2 empty
    windows may follow a run. Half the scenes add a long-lived agent over
    a random stretch of frames. The last run is one window long, so its
    agents are complete only in the last window. Frame ids step by 10-30,
    agent ids are shuffled and the rows come in shuffled order."""
    runs, window = [], 0
    while window < 30:
        count = int(rng.integers(1, 4))
        runs.append((window, count, int(rng.integers(1, 4))))
        window += count + int(rng.integers(0, 3))
    runs.append((window, 1, int(rng.integers(1, 4))))
    frames = window + span
    frame_ids = np.cumsum(rng.integers(1, 4, size=frames)) * 10
    ids = iter(rng.permutation(1000)[:3 * len(runs) + 1].tolist())
    lives = [range(start, start + count + span - 1) for start, count, agents in runs
             for _ in range(agents)]
    if rng.integers(2):
        lo = int(rng.integers(0, frames // 2))
        lives.append(range(lo, int(rng.integers(lo + 1, frames + 1))))
    rows = [(int(frame_ids[f]), agent, float(rng.normal()), float(rng.normal()))
            for agent, life in zip(ids, lives) for f in life]
    return [rows[i] for i in rng.permutation(len(rows))]


def runs_of(instances, frame_ids):
    """Instances grouped into runs: consecutive windows with one agent set."""
    runs = []
    for inst in instances:
        last = runs[-1][-1] if runs else None
        if last is not None and last.agent_ids == inst.agent_ids and \
                frame_ids.index(inst.start_frame) == frame_ids.index(last.start_frame) + 1:
            runs[-1].append(inst)
        else:
            runs.append([inst])
    return runs


def test_run_boundaries_window_like_the_oracle():
    rng = np.random.default_rng(36)
    single = gapped = last_only = False
    for _ in range(12):
        for t_obs, t_pred in ((1, 1), (2, 3), (3, 1), (4, 4)):
            rows = run_scene(rng, t_obs + t_pred)
            frame_ids = sorted({row[0] for row in rows})
            instances = window_instances(scene_of(rows), t_obs, t_pred, "runs")
            want = oracles.window_instances(rows, t_obs, t_pred, "runs")
            assert instance_fields(instances) == instance_fields(want)
            runs = runs_of(instances, frame_ids)
            for run in runs:
                for a, b in zip(run, run[1:]):
                    assert np.shares_memory(a.track, b.track)
            tracks = [(k, inst.track) for k, run in enumerate(runs) for inst in run]
            for i, (run_a, a) in enumerate(tracks):
                for run_b, b in tracks[i + 1:]:
                    assert run_a == run_b or not np.shares_memory(a, b)
            single |= any(len(run) == 1 for run in runs[:-1])
            starts = [frame_ids.index(inst.start_frame) for inst in instances]
            gapped |= any(b - a > 1 for a, b in zip(starts, starts[1:]))
            last = instances[-1]
            last_only |= starts[-1] == len(frame_ids) - t_obs - t_pred and any(
                all(agent not in inst.agent_ids for inst in instances[:-1])
                for agent in last.agent_ids)
            kept = instance_fields(instances)
            for inst in instances[::3]:
                for view in (inst.track, inst.obs_abs, inst.fut_abs):
                    with pytest.raises(ValueError):
                        view[:] = 0.0
                with pytest.raises(ValueError):
                    inst.track.flags.writeable = True
            assert instance_fields(instances) == kept
    assert single and gapped and last_only


@pytest.mark.parametrize("make", [
    lambda: synthetic_instances(SyntheticScenarioSpec(kind="stagger", agents=3, seed=2), 4),
    lambda: window_instances(line_scene(3, 23)),
])
def test_windows_of_one_run_are_read_only_views_of_one_block(make):
    instances = make()
    kept = instance_fields(instances)
    block = instances[0].track.base
    for k, inst in enumerate(instances):
        span = inst.t_obs + inst.t_pred
        assert inst.track.shape == (inst.n_agents, span, 2)
        assert inst.track.base is block and not block.flags.writeable
        # The instance records its run's block and its frame offset there.
        assert inst.block is instances[0].block and inst.offset == k
        window = inst.block[:, inst.offset:inst.offset + span]
        assert np.shares_memory(inst.track, window) and inst.track.strides == window.strides
        assert np.array_equal(inst.track, window)
        assert np.shares_memory(inst.obs_abs, inst.track)
        assert np.shares_memory(inst.fut_abs, inst.track)
        assert np.shares_memory(inst.track, instances[k - 1].track)
    first, second = instances[0], instances[1]
    for view in (first.track, first.obs_abs, first.fut_abs):
        with pytest.raises(ValueError):
            view[:] = -1.0
    assert instance_fields(instances) == kept
    # The steps are read from the track, and a private copy is writable.
    moved = first.translated([0.0, 0.0])
    moved.obs_abs[:] = -1.0
    assert not moved.obs_rel.any()
    assert np.array_equal(moved.fut_rel[:, 0], moved.fut_abs[:, 0] + 1.0)
    assert instance_fields([second]) == kept[1:2]


def test_each_run_records_one_block_that_no_other_run_holds():
    rng = np.random.default_rng(39)
    for t_obs, t_pred in ((1, 1), (2, 3), (4, 4)):
        rows = run_scene(rng, t_obs + t_pred)
        instances = window_instances(scene_of(rows), t_obs, t_pred, "runs")
        runs = runs_of(instances, sorted({row[0] for row in rows}))
        assert len(runs) > 5
        for run in runs:
            assert all(inst.block is run[0].block for inst in run)
            assert [inst.offset for inst in run] == list(range(len(run)))
            assert run[0].block.shape[1] == len(run) + t_obs + t_pred - 1
        blocks = [run[0].block for run in runs]
        for i, block in enumerate(blocks):
            assert not any(np.shares_memory(block, other) for other in blocks[i + 1:])


def test_windows_hold_their_gathered_positions_and_little_else():
    # One oneway run of 2000 windows over 2019 frames of 6 agents: the
    # windows share its positions instead of holding 20 frames each.
    spec = SyntheticScenarioSpec(kind="oneway")
    synthetic_instances(spec, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instances = synthetic_instances(spec, 2000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 6 * 2019 * 2 * 8 + 512 * len(instances)


def direct_instances():
    """Two instances built by the constructor from views of one array."""
    walk = np.arange(2 * 20 * 2, dtype=np.float64).reshape(2, 20, 2)
    return [TrajectoryInstance("d", [1, 2], 0, walk[:, :8], walk[:, 8:]),
            TrajectoryInstance("d", [1, 2], 1, walk[:, :8], walk[:, 8:])]


def moved_instances():
    inst = window_instances(line_scene(3, 23))[0]
    return [inst.translated([1.0, -2.0]), inst.recentred()]


@pytest.mark.parametrize("make", [direct_instances, moved_instances])
def test_each_instance_owns_one_contiguous_block(make):
    instances = make()
    for inst in instances:
        block = inst.obs_abs.base
        assert block is inst.fut_abs.base and block.flags.c_contiguous
        assert block.shape == (inst.n_agents, inst.t_obs + inst.t_pred, 2)
        assert inst.block is inst.track is block and inst.offset == 0
        assert block.flags.writeable
    first, second = instances[0], instances[1]
    assert not np.shares_memory(first.obs_abs.base, second.obs_abs.base)
    before = second.obs_abs.copy()
    first.obs_abs[:] = -1.0
    assert np.array_equal(second.obs_abs, before)
    # The steps are read from the track, so the write shows in them.
    assert not first.obs_rel.any()
    assert np.array_equal(first.fut_rel[:, 0], first.fut_abs[:, 0] + 1.0)


def test_instances_hold_their_tracks_and_little_else():
    # An instance's steps are read from its track, never stored beside it.
    spec = SyntheticScenarioSpec(kind="oneway")
    synthetic_instances(spec, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        instances = synthetic_instances(spec, 2000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tracks = sum(inst.obs_abs.nbytes + inst.fut_abs.nbytes for inst in instances)
    assert held <= tracks + 512 * len(instances)


def test_writes_to_the_callers_arrays_do_not_reach_the_instance():
    obs, fut = np.ones((2, 8, 2)), np.full((2, 12, 2), 2.0)
    inst = TrajectoryInstance("c", [1, 2], 0, obs, fut)
    kept = instance_fields([inst])
    obs[:] = -1.0
    fut[:] = -1.0
    assert instance_fields([inst]) == kept


def test_the_constructor_keeps_its_own_agent_ids():
    ids = [1, 2]
    inst = TrajectoryInstance("s", ids, 0, np.ones((2, 8, 2)), np.ones((2, 12, 2)))
    ids.append(3)
    assert inst.agent_ids == [1, 2] and inst.n_agents == 2


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda inst: pickle.loads(pickle.dumps(inst))],
                         ids=["deepcopy", "pickle"])
def test_a_copy_derives_its_views_from_its_own_track(clone):
    inst = window_instances(line_scene(3, 23))[1]
    kept = instance_fields([inst])
    twin = clone(inst)
    assert instance_fields([twin]) == kept and not hasattr(twin, "__dict__")
    assert twin.track.flags.c_contiguous and not np.shares_memory(twin.track, inst.track)
    assert twin.block is twin.track and twin.offset == 0 and twin.track.flags.writeable
    assert np.shares_memory(twin.obs_abs, twin.track)
    twin.agent_ids.append(9)
    twin.obs_abs[:] = 0.0
    assert not twin.obs_rel.any()
    assert instance_fields([inst]) == kept


@pytest.mark.parametrize("make", [
    lambda: Scene(np.arange(3), np.arange(2), np.zeros((3, 2, 2)), np.ones((3, 2), bool)),
    # One raw tensor, as the dataclass comparison reaches the arrays only
    # past fields that compare equal.
    functools.partial(decode_gaussian, T.Tensor(np.zeros((1, 2, 1, 5)))),
    lambda: ExpertTrace(np.zeros(3), np.full(3, 1.0 / 3)),
    lambda: HedgeState.uniform(3),
    lambda: TrajectoryInstance("e", [1, 2], 0, np.ones((2, 8, 2)), np.ones((2, 12, 2))),
], ids=["Scene", "GaussianField", "ExpertTrace", "HedgeState", "TrajectoryInstance"])
def test_equal_valued_objects_compare_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True and a in [b, a]
