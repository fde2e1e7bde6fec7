from __future__ import annotations

import hashlib
import json
import math
import tarfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simreal.config import DEFAULT_CONFIG, config_from_dict, config_to_dict
from simreal.errors import ParseError, SimRealError
from simreal.evaluate import evaluate_dataset
from simreal.features import MetricKind
from simreal.harness import generate_submission
from simreal.io import (
    match_scenarios,
    read_scenario,
    read_scenario_dir,
    read_submission,
    validate_submission,
    write_report,
    write_scenario,
    write_scenario_dir,
    write_submission,
)
from simreal.policies import ConstantVelocityPolicy, LoggedOraclePolicy, create_policy
from simreal.scene import (
    MapFeature,
    MapFeatureKind,
    ObjectType,
    Scenario,
    ScenarioRollouts,
    Track,
)
from simreal.synth import SynthSpec, Template, generate, make_suite

TWO_PI = 2.0 * math.pi


def small_scenario(rng=None):
    rng = rng or np.random.default_rng(0)
    n = 91

    def track(oid):
        xs = np.cumsum(rng.uniform(0.0, 1.0, n))
        ys = rng.normal(0.0, 2.0, n)
        hs = rng.uniform(-10.0, 10.0, n)
        valid = rng.uniform(size=n) > 0.2
        valid[10] = True  # keep simulation set stable
        poses = np.stack([xs, ys, np.full(n, 0.5), hs], axis=1)
        return Track(oid, ObjectType.CYCLIST if oid % 2 else ObjectType.VEHICLE,
                     1.9 + oid, 0.7, 1.6, poses, valid)

    return Scenario(
        scenario_id="roundtrip-1",
        tracks=(track(0), track(1), track(2)),
        map_features=(
            MapFeature(0, MapFeatureKind.ROAD_EDGE, ((-50.0, 7.0), (50.0, 7.0))),
            MapFeature(1, MapFeatureKind.LANE_CENTER, ((0.0, 0.0), (1.0, 1.0), (2.0, 1.0))),
            MapFeature(2, MapFeatureKind.OTHER, ((3.0, 3.0), (4.0, 4.0))),
        ),
        av_track_id=0,
    )


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("fmt,suffix", [("json", ".json"), ("binary", ".bin")])
    def test_lossless(self, tmp_path, fmt, suffix):
        scenario = small_scenario()
        path = tmp_path / f"scn{suffix}"
        write_scenario(scenario, path, fmt)
        back = read_scenario(path)
        assert back == scenario

    def test_heading_normalized_on_load(self, tmp_path):
        scenario = small_scenario()
        path = tmp_path / "scn.json"
        write_scenario(scenario, path)
        doc = json.loads(path.read_text())
        doc["tracks"][0]["states"][0]["heading"] = 7.0
        path.write_text(json.dumps(doc))
        back = read_scenario(path)
        assert back.tracks[0].poses[0, 3] == pytest.approx(7.0 - TWO_PI)

    def test_truncated_binary_reports_offset(self, tmp_path):
        scenario = small_scenario()
        path = tmp_path / "scn.bin"
        write_scenario(scenario, path, "binary")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ParseError) as err:
            read_scenario(path)
        assert err.value.offset is not None
        assert str(path) in str(err.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "scn.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ParseError):
            read_scenario(path)

    def test_bad_json_schema(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"scenario_id": "x"}))
        with pytest.raises(ParseError):
            read_scenario(path)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_randomized_round_trip_both_formats(self, tmp_path_factory, seed):
        tmp = tmp_path_factory.mktemp("rt")
        scenario = small_scenario(np.random.default_rng(seed))
        for fmt, suffix in (("json", ".json"), ("binary", ".bin")):
            path = tmp / f"s{suffix}"
            write_scenario(scenario, path, fmt)
            assert read_scenario(path) == scenario


# sha256 of a fixed synthetic scenario in the binary format, and of the
# uncompressed shard of its k=2 constant-velocity submission.  The shard is
# hashed rather than the .tar.gz so the zlib build cannot change the digest.
GOLDEN_SCENARIO_SHA256 = "0940f94f720fcca8d2d26fba2cd21bd394dd29c0e308e79370c8746cb45776bd"
GOLDEN_SHARD_SHA256 = "847c5fe27b8b0777a28f3b665b3b0c8a6272aced6ef55298a338b05c5c7219e8"
# Shards of k=2 submissions from the noise-drawing policies, which pin the
# random streams keyed by (seed, step, object).  A replan interval of 200 holds
# plans past the last step T=80, so it pins the keys of virtual plan steps too.
GOLDEN_NOISE_SHARD_SHA256 = {
    ("noisy-plan", 1): "096d2367e295b8a65eb2e11f396d979a5834d8b34a402a8b3b5a900bd484d116",
    ("random", 1): "6d4fb599658ed880fe86e6b3dfca7b64323bfad745be34f356f4bdf022ae5cd3",
    ("noisy-plan", 200): "1686d547a07a7f2b20ed32cdc259c0dc6feb3449998d730674d531313e520a1c",
}


def golden_scenario():
    return generate(SynthSpec(Template.FOLLOWING_PAIR, seed=3, noise_level=0.2)).scenario


class TestBinaryFormatPinned:
    def test_golden_scenario_and_shard_bytes(self, tmp_path):
        scenario = golden_scenario()
        write_scenario(scenario, tmp_path / "s.bin")
        assert hashlib.sha256((tmp_path / "s.bin").read_bytes()).hexdigest() == (
            GOLDEN_SCENARIO_SHA256
        )
        rollouts = generate_submission(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), k=2, base_seed=0
        )
        write_submission(tmp_path / "a.tar.gz", [rollouts], {"seed": 0})
        with tarfile.open(tmp_path / "a.tar.gz", "r:gz") as tar:
            shard = tar.extractfile("rollouts.0-of-1.bin").read()
        assert hashlib.sha256(shard).hexdigest() == GOLDEN_SHARD_SHA256

    @pytest.mark.parametrize("policy,interval", sorted(GOLDEN_NOISE_SHARD_SHA256))
    def test_golden_random_stream_shard_bytes(self, tmp_path, policy, interval):
        scenario = golden_scenario()
        rollouts = generate_submission(
            scenario,
            create_policy(policy, scenario, replan_interval=interval),
            create_policy(policy, scenario, replan_interval=interval),
            k=2,
            base_seed=0,
        )
        write_submission(tmp_path / "a.tar.gz", [rollouts], {"seed": 0})
        with tarfile.open(tmp_path / "a.tar.gz", "r:gz") as tar:
            shard = tar.extractfile("rollouts.0-of-1.bin").read()
        assert hashlib.sha256(shard).hexdigest() == GOLDEN_NOISE_SHARD_SHA256[policy, interval]

    @settings(max_examples=60, deadline=None)
    @given(
        poses=hnp.arrays(
            np.float64,
            st.tuples(
                st.integers(1, 3), st.integers(0, 3), st.integers(1, 4), st.just(4)
            ),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
            | st.sampled_from([-0.0, 5e-324, -2.2e-308]),
        ),
        id_seed=st.integers(0, 2**32 - 1),
    )
    def test_rollout_arrays_round_trip_bit_exact(self, tmp_path_factory, poses, id_seed):
        rng = np.random.default_rng(id_seed)
        ids = rng.choice(np.arange(-(2**40), 2**40, 2**30), size=poses.shape[1], replace=False)
        rollouts = ScenarioRollouts("rt", ids, poses)
        path = tmp_path_factory.mktemp("rt") / "sub.tar.gz"
        write_submission(path, [rollouts], {})
        ((_, back),) = read_submission(path).entries
        assert back.ids.tobytes() == rollouts.ids.tobytes()
        assert back.rollouts.tobytes() == rollouts.rollouts.tobytes()


class TestMalformedBinary:
    def _blob(self, tmp_path):
        path = tmp_path / "scn.bin"
        write_scenario(golden_scenario(), path)
        return path, bytearray(path.read_bytes())

    def test_invalid_utf8_id_is_parse_error(self, tmp_path):
        path, blob = self._blob(tmp_path)
        blob[19] = 0xFF  # first byte of the scenario id, after magic, header and length
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError) as err:
            read_scenario(path)
        assert err.value.offset == 19

    def test_unknown_record_kind_is_rejected(self, tmp_path):
        path, blob = self._blob(tmp_path)
        path.write_bytes(bytes(blob) + bytes([9]) + (0).to_bytes(8, "little"))
        with pytest.raises(ParseError, match="unknown record kind 9"):
            read_scenario(path)

    def test_trailing_payload_bytes_are_rejected(self, tmp_path):
        path, blob = self._blob(tmp_path)
        length = int.from_bytes(blob[9:17], "little")
        blob[9:17] = (length + 3).to_bytes(8, "little")
        path.write_bytes(bytes(blob) + b"\x00\x00\x00")
        with pytest.raises(ParseError, match="3 unparsed bytes"):
            read_scenario(path)

    @settings(max_examples=300, deadline=None)
    @given(
        edits=st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 255)), min_size=1,
                       max_size=4),
        truncate=st.none() | st.integers(0, 10**9),
    )
    def test_mutated_file_reads_or_raises_library_error(self, tmp_path_factory, edits, truncate):
        path, blob = self._blob(tmp_path_factory.mktemp("mut"))
        for pos, value in edits:
            blob[pos % len(blob)] = value
        if truncate is not None:
            blob = blob[: truncate % len(blob)]
        path.write_bytes(bytes(blob))
        try:
            scenario = read_scenario(path)
        except SimRealError:
            return
        assert isinstance(scenario, Scenario)


@pytest.fixture(scope="module")
def suite_and_archive(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("archive")
    suite = make_suite(count=4, base_seed=0, noise_level=0.1)
    scenarios = {s.scenario.scenario_id: s.scenario for s in suite}
    all_rollouts = []
    for synth in suite:
        scenario = synth.scenario
        rollouts = generate_submission(
            scenario,
            LoggedOraclePolicy(scenario),
            ConstantVelocityPolicy(),
            k=32,
            base_seed=0,
        )
        all_rollouts.append(rollouts)
    path = tmp / "sub.tar.gz"
    write_submission(path, all_rollouts, {"seed": 0, "env_policy": "constant-velocity"})
    return scenarios, all_rollouts, path


class TestSubmissionArchive:
    def test_round_trip(self, suite_and_archive):
        scenarios, all_rollouts, path = suite_and_archive
        archive = read_submission(path)
        assert archive.manifest["seed"] == 0
        by_id, problems = match_scenarios(archive, scenarios)
        assert not problems
        assert set(by_id) == set(scenarios)
        want = {r.scenario_id: r for r in all_rollouts}
        for sid, rec in by_id.items():
            assert len(rec.rollouts) == 32
            np.testing.assert_array_equal(rec.ids, want[sid].ids)
            np.testing.assert_array_equal(rec.rollouts, want[sid].rollouts)

    def test_deterministic_bytes(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, path = suite_and_archive
        again = tmp_path / "again.tar.gz"
        write_submission(again, all_rollouts, {"seed": 0, "env_policy": "constant-velocity"})
        assert again.read_bytes() == path.read_bytes()

    def test_harness_archive_validates_clean(self, suite_and_archive):
        scenarios, _, path = suite_and_archive
        report = validate_submission(path, scenarios)
        assert report.ok, report.summary_lines()

    def test_missing_object_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        rec = all_rollouts[0]
        dropped = ScenarioRollouts(rec.scenario_id, rec.ids[:-1], rec.rollouts[:, :-1])
        path = tmp_path / "broken.tar.gz"
        write_submission(path, [dropped], {})
        report = validate_submission(path, {rec.scenario_id: scenarios[rec.scenario_id]})
        codes = {v.code for v in report.violations}
        assert "MISSING_OBJECT" in codes

    def test_bad_rollout_count_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        rec = all_rollouts[0]
        short = ScenarioRollouts(rec.scenario_id, rec.ids, rec.rollouts[:31])
        path = tmp_path / "short.tar.gz"
        write_submission(path, [short], {})
        report = validate_submission(path, {rec.scenario_id: scenarios[rec.scenario_id]})
        codes = {v.code for v in report.violations}
        assert "BAD_ROLLOUT_COUNT" in codes

    def test_duplicate_scenario_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        rec = all_rollouts[0]
        path = tmp_path / "dup.tar.gz"
        write_submission(path, [rec, rec], {}, shard_count=2)
        report = validate_submission(path, {rec.scenario_id: scenarios[rec.scenario_id]})
        codes = {v.code for v in report.violations}
        assert "DUPLICATE_SCENARIO" in codes

    def test_missing_scenario_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        path = tmp_path / "partial.tar.gz"
        write_submission(path, all_rollouts[:2], {})
        report = validate_submission(path, scenarios)
        codes = {v.code for v in report.violations}
        assert "MISSING_SCENARIO" in codes

    def test_nonfinite_pose_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        rec = all_rollouts[0]
        poses = rec.rollouts.copy()
        poses[0, 0, 5, 0] = math.inf
        poses[3, 1, 7, 3] = math.nan
        broken = ScenarioRollouts(rec.scenario_id, rec.ids, poses)
        path = tmp_path / "nan.tar.gz"
        write_submission(path, [broken], {})
        report = validate_submission(path, {rec.scenario_id: scenarios[rec.scenario_id]})
        details = [v.detail for v in report.violations if v.code == "NONFINITE_POSE"]
        assert details == [
            f"rollout 0 object {rec.ids[0]} has NaN/Inf",
            f"rollout 3 object {rec.ids[1]} has NaN/Inf",
        ]


def _tiny_archive(path):
    """A two-scenario archive small enough to mutate many times per test."""
    rng = np.random.default_rng(11)
    bundles = [
        ScenarioRollouts(sid, np.array([3, 7]), rng.normal(size=(2, 2, 6, 4)))
        for sid in ("alpha", "beta")
    ]
    write_submission(path, bundles, {"seed": 0})
    return path.read_bytes()


def _archive_bytes(archive):
    return archive.manifest, [
        (name, rec.scenario_id, rec.ids.tobytes(), rec.rollouts.tobytes())
        for name, rec in archive.entries
    ]


class TestArchiveIntegrity:
    @pytest.mark.parametrize("from_end,field", [(8, "crc32"), (4, "isize")])
    def test_corrupt_gzip_trailer_is_parse_error(self, tmp_path, from_end, field):
        blob = bytearray(_tiny_archive(tmp_path / "ok.tar.gz"))
        blob[-from_end] ^= 0x01
        path = tmp_path / f"bad-{field}.tar.gz"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="unreadable archive"):
            read_submission(path)

    @settings(max_examples=200, deadline=None)
    @given(
        edits=st.lists(st.tuples(st.integers(0, 10**9), st.integers(1, 255)), min_size=1,
                       max_size=4),
        truncate=st.none() | st.integers(0, 10**9),
    )
    def test_mutated_archive_reads_identical_or_raises_parse_error(
        self, tmp_path_factory, edits, truncate
    ):
        tmp = tmp_path_factory.mktemp("arch")
        original = _tiny_archive(tmp / "ok.tar.gz")
        want = _archive_bytes(read_submission(tmp / "ok.tar.gz"))
        blob = bytearray(original)
        for pos, flip in edits:
            blob[pos % len(blob)] ^= flip
        if truncate is not None:
            blob = blob[: truncate % len(blob)]
        path = tmp / "mutated.tar.gz"
        path.write_bytes(bytes(blob))
        try:
            got = read_submission(path)
        except ParseError:
            return
        assert _archive_bytes(got) == want


class TestScenarioDir:
    def test_synth_dir_round_trip(self, tmp_path):
        suite = make_suite(count=3, base_seed=5, noise_level=0.0)
        write_scenario_dir(suite, tmp_path)
        back = read_scenario_dir(tmp_path)
        assert set(back) == {s.scenario.scenario_id for s in suite}
        fixture_files = list(tmp_path.glob("*.fixtures.json"))
        assert len(fixture_files) == 3

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(ParseError):
            read_scenario_dir(tmp_path)


class TestReports:
    def _bundles(self):
        suite = make_suite(count=2, base_seed=1, noise_level=0.1)
        pairs = []
        for synth in suite:
            scenario = synth.scenario
            oracle = LoggedOraclePolicy(scenario)
            env = LoggedOraclePolicy(scenario)
            pairs.append((scenario, generate_submission(scenario, oracle, env, k=32)))
        return evaluate_dataset(pairs, DEFAULT_CONFIG)

    def test_csv_shape_and_summary_consistency(self, tmp_path):
        bundles, summary = self._bundles()
        csv_path = tmp_path / "report.csv"
        write_report(bundles, summary, csv_path, "csv")
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 scenarios
        header = rows[0].split(",")
        assert header[0] == "scenario_id"
        assert header[1:10] == [m.value for m in MetricKind]
        assert header[10:] == ["composite", "ade", "min_ade"]
        composites = [float(r.split(",")[10]) for r in rows[1:]]
        assert np.mean(composites) == pytest.approx(summary.composite, abs=1e-12)

    def test_json_report(self, tmp_path):
        bundles, summary = self._bundles()
        out = tmp_path / "report.json"
        write_report(bundles, summary, out, "json", config=DEFAULT_CONFIG)
        doc = json.loads(out.read_text())
        assert doc["summary"]["scenario_count"] == 2
        assert len(doc["scenarios"]) == 2
        assert "weights" in doc["config"]

    def test_empty_bundle_list_gives_header_only_csv(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_report([], None, out, "csv")
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        doc = config_to_dict(DEFAULT_CONFIG)
        back = config_from_dict(doc)
        assert back == DEFAULT_CONFIG

    def test_weight_override(self):
        doc = config_to_dict(DEFAULT_CONFIG)
        doc["weights"] = {m.value: (0.5 if m is MetricKind.COLLISION else 0.0625)
                         for m in MetricKind}
        cfg = config_from_dict(doc)
        assert cfg.weights[MetricKind.COLLISION] == 0.5

    def test_bad_weights_rejected(self):
        doc = config_to_dict(DEFAULT_CONFIG)
        doc["weights"] = {m.value: 0.5 for m in MetricKind}
        with pytest.raises(ParseError):
            config_from_dict(doc)

    def test_histogram_override(self):
        doc = config_to_dict(DEFAULT_CONFIG)
        doc["histograms"]["linear_speed"]["bins"] = 64
        cfg = config_from_dict(doc)
        assert cfg.histograms[MetricKind.LINEAR_SPEED].bins == 64

    @pytest.mark.parametrize("metric", ["collision", "offroad"])
    @pytest.mark.parametrize("field,value", [("min", -1.0), ("max", 2.0), ("bins", 4)])
    def test_boolean_spec_must_be_unit_interval_with_two_bins(self, metric, field, value):
        doc = config_to_dict(DEFAULT_CONFIG)
        doc["histograms"][metric][field] = value
        with pytest.raises(ParseError, match=metric):
            config_from_dict(doc)

    def test_boolean_spec_pseudocount_override(self):
        doc = config_to_dict(DEFAULT_CONFIG)
        doc["histograms"]["collision"]["pseudocount"] = 0.5
        assert config_from_dict(doc).histograms[MetricKind.COLLISION].pseudocount == 0.5
