from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import math
import struct
import tarfile
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from simreal.cli import main
from simreal.config import DEFAULT_CONFIG, config_from_dict, config_to_dict
from simreal.errors import MalformedScenario, OccupiedOutput, ParseError, SimRealError
from simreal.evaluate import evaluate_dataset
from simreal.features import MetricKind
from simreal.harness import generate_submission
from simreal.io import (
    encode_rollouts,
    MAGIC,
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
    OBJECT_TYPES,
    POSE_COORDINATE_LIMIT,
    MapFeature,
    MapFeatureKind,
    ObjectType,
    Scenario,
    ScenarioRollouts,
    Tracks,
)
from simreal.synth import SynthSpec, Template, generate, suite_specs

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
        return np.stack([xs, ys, np.full(n, 0.5), hs], axis=1), valid

    poses, valid = zip(*(track(oid) for oid in range(3)))
    return Scenario(
        scenario_id="roundtrip-1",
        tracks=Tracks(
            ids=[0, 1, 2],
            types=[OBJECT_TYPES.index(ObjectType.CYCLIST if oid % 2 else ObjectType.VEHICLE)
                   for oid in range(3)],
            dims=[(1.9 + oid, 0.7, 1.6) for oid in range(3)],
            poses=poses,
            valid=valid,
        ),
        map_features=(
            MapFeature(0, MapFeatureKind.ROAD_EDGE, ((-50.0, 7.0), (50.0, 7.0))),
            MapFeature(1, MapFeatureKind.LANE_CENTER, ((0.0, 0.0), (1.0, 1.0), (2.0, 1.0))),
            MapFeature(2, MapFeatureKind.OTHER, ((3.0, 3.0), (4.0, 4.0))),
        ),
        av_track_id=0,
    )


def suite(count, seed, noise):
    """``count`` synthetic scenarios taking every template in turn."""
    return [generate(spec) for spec in suite_specs(list(Template), count, seed, noise)]


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
        assert back.tracks.poses[0, 0, 3] == pytest.approx(7.0 - TWO_PI)

    @pytest.mark.parametrize("edit,error,message", [
        (lambda doc: doc["tracks"][1]["states"].pop(), MalformedScenario,
         "track 1: expected 91 poses, got 90"),
        (lambda doc: doc["tracks"][2].update(length=0.0), MalformedScenario,
         "track 2: box extents must be finite and strictly positive"),
        (lambda doc: doc["tracks"][1]["states"][4].update(x=10**400), ParseError,
         "bad scenario document: int too large to convert to float"),
        (lambda doc: doc["map_features"][0]["polyline"][0].append(1.0), ParseError,
         "bad scenario document"),
    ], ids=["short-track", "zero-length", "huge-int", "three-coordinate-point"])
    def test_bad_document_names_its_fault(self, tmp_path, edit, error, message):
        path = tmp_path / "scn.json"
        write_scenario(small_scenario(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(error, match=message):
            read_scenario(path)

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


# sha256 of synthetic scenario files in both formats, keyed by (template,
# agents, seed) at noise 0.2 as for the fixtures below, and of shards of the
# following_pair scenario's k=2 submissions.  Shards are hashed rather than
# the .tar.gz so the zlib build cannot change the digest.  The shard pins
# other than GOLDEN_PLANAR_SHARD_SHA256 hash format-1 shard bytes (kind-2
# records, poses interleaved), rebuilt by ``_format1_shard`` from what
# ``read_submission`` decodes out of a current archive.  They are the digests
# the format-1 writer produced, so they pin the decoded poses, and through
# them the rollouts and noise streams, bit for bit across the format change.
GOLDEN_SCENARIO_SHA256 = {
    ("straight_road", None, 3): (
        "9b3a7fd11b1913d74a3f2b31a527181656bda0a267b1266987ed20dd5bf45858",
        "fe63227692022f03dfba4da1ea5f1ba2cff7b65dab54d4d6694ab5b040e8db53",
    ),
    ("curved_road", None, 3): (
        "7ee14f8994d9cee5498e45ea047d6a5d2991562257f480fe5907a187c30bdc31",
        "4663cfa6ae2d968d1743db1204d04e03998eb3e70dec04bbadb38e460dfb4360",
    ),
    ("four_way_intersection", None, 3): (
        "55ab48f50f3a01e7f2908b048d142a682d4d4dd07bfa3a332a42bcdcce2238d9",
        "21f86ae335337627cb6ba28674adff9d3b597cab782a318bc4da19669d4e25ae",
    ),
    ("following_pair", None, 3): (
        "56eaea903fc4ce8edd8bab6df69a82e4d8fa615896d6854358fae32b0ef7778a",
        "0940f94f720fcca8d2d26fba2cd21bd394dd29c0e308e79370c8746cb45776bd",
    ),
    ("collision_course", None, 3): (
        "75622d2178e9854990f45b9e19aa2ded9cc564d4843183c6db714ab5d7870511",
        "56eba2e8e096254fcc19fccefd29912d037ec1bb21d688ed2d137f4ad72890d4",
    ),
    ("offroad_drift", None, 3): (
        "2ec6a74f32eb5e41de7a17934ea2fbc648939227027ce5ee4e002b7e70d20718",
        "800696cbc76b7278b89221934cae1012aec9b415441d4669e04d0685ac9f2c1b",
    ),
    ("straight_road", 64, 0): (
        "00f721713e24cca47024b7320970806bbc74279ee0e4cf8da0f4e16c1ef783ed",
        "d49c085ff8fa754ca6b3848b9b1391eee58498909ec53bae502fc661b9fcbdc2",
    ),
}
GOLDEN_SHARD_SHA256 = "847c5fe27b8b0777a28f3b665b3b0c8a6272aced6ef55298a338b05c5c7219e8"
# The same submission's shard as written: kind-3 records in byte planes.
GOLDEN_PLANAR_SHARD_SHA256 = "a0fdfa7ae310d90fdea3c9e588e2e9b7c6ba257308c469d782d1698af57ecad3"
# Shards of k=2 submissions from the noise-drawing policies, which pin the
# random streams keyed by (seed, step, object).  A replan interval of 200 holds
# plans past the last step T=80, so it pins the keys of virtual plan steps too.
GOLDEN_NOISE_SHARD_SHA256 = {
    ("noisy-plan", 1): "096d2367e295b8a65eb2e11f396d979a5834d8b34a402a8b3b5a900bd484d116",
    ("random", 1): "6d4fb599658ed880fe86e6b3dfca7b64323bfad745be34f356f4bdf022ae5cd3",
    ("noisy-plan", 200): "1686d547a07a7f2b20ed32cdc259c0dc6feb3449998d730674d531313e520a1c",
}
# The analytic fixture sidecars, as the synth command writes them, keyed by
# (template, agents, seed) at noise 0.2: every template at seed 3 (following_pair
# is the scenario above), and a 64-agent straight road, 2,432 of whose 5,120
# nearest-object values take the ``math.hypot`` branch of the box distance.
GOLDEN_FIXTURES_SHA256 = {
    ("straight_road", None, 3): "7a3aa2880585f75fa67f55ab6e9b027abc29721bb8fdb8f0fbdda9247db908f8",
    ("curved_road", None, 3): "f342db0a48314004ae16e86f08c479c24417e98ebd28a6403fc3d950de3651b3",
    ("four_way_intersection", None, 3): (
        "6ebe83348d90568d7263c83cf2f1e0025eee730bd48c669543f117c0f6742164"
    ),
    ("following_pair", None, 3): "5ebc8c2378b015a445074646b46dedf45b3bd2b2437ded92aeab699dcf79ca59",
    ("collision_course", None, 3): (
        "aa05adbac27e8bf184951e0cca4c290c6a76c6f2df07820490c27e03140e0777"
    ),
    ("offroad_drift", None, 3): "d62e3d94bc15e16dbedb0f0275196353aacb7861ffa1e1e499c2f04daa76c049",
    ("straight_road", 64, 0): "6834ea50c0e4a0231bb9e1a9cfeef309710ed8404600be1728417336b848127d",
}


def golden_scenario():
    return generate(SynthSpec(Template.FOLLOWING_PAIR, seed=3, noise_level=0.2)).scenario


def _format1_record(rollouts):
    """A rollouts record as archive format 1 wrote it: kind 2, poses interleaved (K, A, T, 4)."""
    k, n_ids, n_steps, _ = rollouts.rollouts.shape
    sid = rollouts.scenario_id.encode("utf-8")
    payload = b"".join([
        struct.pack("<H", len(sid)), sid, struct.pack("<IIH", k, n_ids, n_steps),
        rollouts.ids.astype("<i8").tobytes(), rollouts.rollouts.astype("<f8").tobytes(),
    ])
    return struct.pack("<BQ", 2, len(payload)) + payload


def _format1_shard(path):
    """The format-1 bytes of a one-shard archive's shard, rebuilt from its decoded records."""
    return MAGIC + b"".join(_format1_record(rec) for _, rec in read_submission(path).entries)


class TestBinaryFormatPinned:
    @pytest.mark.parametrize("template,agents,seed", sorted(GOLDEN_SCENARIO_SHA256, key=str))
    def test_golden_scenario_bytes(self, tmp_path, template, agents, seed):
        scenario = generate(SynthSpec(Template(template), agents, seed, noise_level=0.2)).scenario
        digests = []
        for suffix in (".json", ".bin"):
            write_scenario(scenario, tmp_path / f"s{suffix}")
            digests.append(hashlib.sha256((tmp_path / f"s{suffix}").read_bytes()).hexdigest())
            assert read_scenario(tmp_path / f"s{suffix}") == scenario
        assert tuple(digests) == GOLDEN_SCENARIO_SHA256[template, agents, seed]

    def test_golden_shard_bytes(self, tmp_path):
        scenario = golden_scenario()
        rollouts = generate_submission(
            scenario, ConstantVelocityPolicy(), ConstantVelocityPolicy(), k=2, base_seed=0
        )
        write_submission(tmp_path / "a.tar.gz", [encode_rollouts(rollouts)], {"seed": 0})
        shard = _format1_shard(tmp_path / "a.tar.gz")
        assert hashlib.sha256(shard).hexdigest() == GOLDEN_SHARD_SHA256
        with tarfile.open(tmp_path / "a.tar.gz", "r:gz") as tar:
            planar = tar.extractfile("rollouts.0-of-1.bin").read()
        assert hashlib.sha256(planar).hexdigest() == GOLDEN_PLANAR_SHARD_SHA256

    @pytest.mark.parametrize("template,agents,seed", sorted(GOLDEN_FIXTURES_SHA256, key=str))
    def test_golden_fixture_sidecar_bytes(self, tmp_path, template, agents, seed):
        synth = generate(SynthSpec(Template(template), agents, seed, noise_level=0.2))
        write_scenario_dir([synth], tmp_path)
        sidecar = tmp_path / f"{synth.scenario.scenario_id}.fixtures.json"
        assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == (
            GOLDEN_FIXTURES_SHA256[template, agents, seed]
        )

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
        write_submission(tmp_path / "a.tar.gz", [encode_rollouts(rollouts)], {"seed": 0})
        shard = _format1_shard(tmp_path / "a.tar.gz")
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
        write_submission(path, [encode_rollouts(rollouts)], {})
        ((_, back),) = read_submission(path).entries
        assert back.ids.tobytes() == rollouts.ids.tobytes()
        assert back.rollouts.tobytes() == rollouts.rollouts.tobytes()


# Bit patterns a pose codec must carry unchanged: signed zero, subnormals, the
# infinities, and quiet and signalling NaNs with payloads and either sign.
_SPECIAL_POSE_BITS = (
    0x8000000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x7FF0000000000000,
    0xFFF0000000000000, 0x7FF8000000000000, 0x7FF8DEADBEEF0001, 0xFFF0000000000123,
)


def _pose_tensor(shape, seed, styles, specials):
    """A (K, A, T, 4) pose tensor whose channels are noise, smooth tracks or constants."""
    rng = np.random.default_rng(seed)
    channels = []
    for style in styles:
        if style == "noise":  # low mantissa bytes near random: stored planes
            channels.append(rng.normal(0.0, 50.0, shape))
        elif style == "smooth":  # slowly varying values: every plane deflates
            channels.append(np.cumsum(rng.uniform(0.0, 0.01, shape), axis=-1) + 1000.0)
        else:
            channels.append(np.full(shape, 1.5))
    poses = np.stack(channels, axis=-1)
    flat = poses.reshape(-1).view("<u8")
    for pos, bits in specials if flat.size else ():
        flat[pos % flat.size] = bits
    return poses


class TestPlanarRecords:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(0, 24), st.integers(1, 300)),
        seed=st.integers(0, 2**32 - 1),
        styles=st.tuples(*[st.sampled_from(["noise", "smooth", "constant"])] * 4),
        specials=st.lists(st.tuples(st.integers(0, 10**9), st.sampled_from(_SPECIAL_POSE_BITS)),
                          max_size=8),
    )
    # Planes of K*A*T bytes either side of the 4 KiB probe and of the 16 KiB
    # always-deflate size.
    @example(shape=(1, 1, 4095), seed=0, styles=("noise",) * 4, specials=[])
    @example(shape=(1, 1, 4097), seed=1, styles=("noise", "smooth", "noise", "constant"),
             specials=[(7, _SPECIAL_POSE_BITS[6])])
    @example(shape=(4, 4, 1024), seed=2, styles=("noise",) * 4, specials=[])
    @example(shape=(1, 1, 16385), seed=3, styles=("noise", "smooth", "constant", "noise"),
             specials=[(5, bits) for bits in _SPECIAL_POSE_BITS])
    @example(shape=(3, 24, 300), seed=4, styles=("smooth", "noise", "noise", "smooth"),
             specials=[(10**9, _SPECIAL_POSE_BITS[7])])
    def test_round_trip_is_bit_exact_and_independent_of_other_records(
        self, tmp_path_factory, shape, seed, styles, specials
    ):
        bundle = ScenarioRollouts("rt", np.arange(shape[1]) * 7 - 40,
                                  _pose_tensor(shape, seed, styles, specials))
        others = [ScenarioRollouts(sid, np.array([1, 2]), _pose_tensor((2, 2, 9), seed, styles, []))
                  for sid in ("a", "z")]
        alone = encode_rollouts(bundle)
        assert alone.size == len(gzip.decompress(alone.members))
        path = tmp_path_factory.mktemp("planar") / "sub.tar.gz"
        write_submission(path, [encode_rollouts(others[0]), encode_rollouts(bundle),
                                encode_rollouts(others[1])], {})
        assert alone.members in path.read_bytes()
        back = {rec.scenario_id: rec for _, rec in read_submission(path).entries}["rt"]
        assert back.ids.view("<u8").tobytes() == bundle.ids.view("<u8").tobytes()
        assert np.array_equal(back.rollouts.view("<u8"), bundle.rollouts.view("<u8"))

    def test_noise_planes_above_16_kib_are_stored(self):
        # At 16 KiB every plane is deflated, in one member; above it the six
        # low bytes of each noisy channel probe incompressible and are stored.
        def members(steps):
            poses = _pose_tensor((1, 1, steps), 0, ("noise",) * 4, [])
            return _split_members(encode_rollouts(ScenarioRollouts("n", [1], poses)).members)

        assert len(members(16384)) == 1
        assert [_stored(m) for m in members(16385)] == [True, False] * 4


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

    def test_unknown_object_type_code_names_its_offset(self, tmp_path):
        path, blob = self._blob(tmp_path)
        # magic, record header, id "following_pair-s0003", scenario header, then
        # 33 + 33 * 91 bytes a track: [id:8][type:1][dims:24][poses][flags].
        block = 8 + 9 + 2 + 20 + 24
        blob[block + 3036 + 8] = 7  # track 1's type code
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="unknown object type code 7") as err:
            read_scenario(path)
        assert err.value.offset == block + 3036 + 33

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
    synths = suite(4, 0, 0.1)
    scenarios = {s.scenario.scenario_id: s.scenario for s in synths}
    all_rollouts = []
    for synth in synths:
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
    write_submission(path, map(encode_rollouts, all_rollouts),
                     {"seed": 0, "env_policy": "constant-velocity"})
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
        write_submission(again, map(encode_rollouts, all_rollouts),
                         {"seed": 0, "env_policy": "constant-velocity"})
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
        write_submission(path, [encode_rollouts(dropped)], {})
        report = validate_submission(path, {rec.scenario_id: scenarios[rec.scenario_id]})
        codes = {v.code for v in report.violations}
        assert "MISSING_OBJECT" in codes

    def test_bad_rollout_count_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        rec = all_rollouts[0]
        short = ScenarioRollouts(rec.scenario_id, rec.ids, rec.rollouts[:31])
        path = tmp_path / "short.tar.gz"
        write_submission(path, [encode_rollouts(short)], {})
        report = validate_submission(path, {rec.scenario_id: scenarios[rec.scenario_id]})
        codes = {v.code for v in report.violations}
        assert "BAD_ROLLOUT_COUNT" in codes

    def test_duplicate_scenario_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        rec = all_rollouts[0]
        path = tmp_path / "dup.tar.gz"
        write_submission(path, [encode_rollouts(rec)] * 2, {})
        report = validate_submission(path, {rec.scenario_id: scenarios[rec.scenario_id]})
        codes = {v.code for v in report.violations}
        assert "DUPLICATE_SCENARIO" in codes

    def test_missing_scenario_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        path = tmp_path / "partial.tar.gz"
        write_submission(path, map(encode_rollouts, all_rollouts[:2]), {})
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
        write_submission(path, [encode_rollouts(broken)], {})
        report = validate_submission(path, {rec.scenario_id: scenarios[rec.scenario_id]})
        details = [v.detail for v in report.violations if v.code == "NONFINITE_POSE"]
        assert details == [
            f"rollout 0 object {rec.ids[0]} has NaN/Inf",
            f"rollout 3 object {rec.ids[1]} has NaN/Inf",
        ]

    def test_out_of_range_pose_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        rec = all_rollouts[0]
        poses = rec.rollouts.copy()
        poses[1, 0, 4, 2] = -POSE_COORDINATE_LIMIT  # on the limit: allowed
        poses[2, 1, 9, 1] = 1.0001 * POSE_COORDINATE_LIMIT
        poses[5, 0, 3, 0] = math.inf  # non-finite, not out of range
        broken = ScenarioRollouts(rec.scenario_id, rec.ids, poses)
        path = tmp_path / "far.tar.gz"
        write_submission(path, [encode_rollouts(broken)], {})
        report = validate_submission(path, {rec.scenario_id: scenarios[rec.scenario_id]})
        assert [(v.code, v.detail) for v in report.violations] == [
            ("NONFINITE_POSE", f"rollout 5 object {rec.ids[0]} has NaN/Inf"),
            ("OUT_OF_RANGE_POSE", f"rollout 2 object {rec.ids[1]} has a coordinate beyond 1e+07 m"),
        ]

    def test_rollout_count_departing_from_the_manifest_flagged(self, suite_and_archive, tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        cut = [replace(rec, rollouts=rec.rollouts[:2]) for rec in all_rollouts]
        path = tmp_path / "declared4.tar.gz"
        write_submission(path, map(encode_rollouts, cut), {"rollouts_per_scenario": 4})
        report = validate_submission(path, scenarios, expected_rollouts=2)
        assert [(v.code, v.detail) for v in report.violations] == [
            ("ROLLOUT_COUNT_MISMATCH",
             "holds 2 rollouts per scenario where the manifest declares 4"),
        ] * len(cut)

    def test_rollout_count_departing_from_the_first_scenario_flagged(self, suite_and_archive,
                                                                     tmp_path):
        scenarios, all_rollouts, _ = suite_and_archive
        records = sorted(all_rollouts, key=lambda rec: rec.scenario_id)
        cut = [replace(rec, rollouts=rec.rollouts[: 2 + i % 2]) for i, rec in enumerate(records)]
        path = tmp_path / "mixed.tar.gz"
        write_submission(path, map(encode_rollouts, cut), {})
        matched, problems = match_scenarios(read_submission(path), scenarios)
        first = min(scenarios)
        assert len(matched[first].rollouts) == 2
        assert [(v.code, v.scenario_id, v.detail) for v in problems] == [
            ("ROLLOUT_COUNT_MISMATCH", rec.scenario_id,
             f"holds 3 rollouts per scenario where {first} holds 2")
            for rec in cut[1::2]
        ]


def _repack(path, members):
    """Write ``(name, bytes)`` members as a gzipped tar, in order."""
    with tarfile.open(path, "w:gz") as tar:
        for name, blob in members:
            info = tarfile.TarInfo(name)
            info.size = len(blob)
            tar.addfile(info, io.BytesIO(blob))


def _members(path):
    with tarfile.open(path, "r:gz") as tar:
        return [(m.name, tar.extractfile(m).read()) for m in tar]


class TestRecordKinds:
    """A scenario file holds one scenario record; an archive shard only rollouts records."""

    def test_scenario_file_holding_two_scenarios_is_rejected(self, tmp_path):
        specs = [SynthSpec(Template.STRAIGHT_ROAD, seed=0), SynthSpec(Template.CURVED_ROAD, seed=1)]
        write_scenario_dir([generate(spec) for spec in specs], tmp_path, fmt="binary")
        first, second = tmp_path / "straight_road-s0000.bin", tmp_path / "curved_road-s0001.bin"
        second.write_bytes(second.read_bytes() + first.read_bytes()[len(MAGIC):])
        first.unlink()
        with pytest.raises(ParseError, match="2 scenario records, expected one"):
            read_scenario_dir(tmp_path)

    def test_shard_holding_a_scenario_record_is_rejected(self, tmp_path):
        write_submission(tmp_path / "ok.tar.gz", [
            encode_rollouts(ScenarioRollouts("alpha", np.array([3, 7]), np.zeros((2, 2, 6, 4))))
        ], {})
        write_scenario(golden_scenario(), tmp_path / "scn.bin")
        scenario_record = (tmp_path / "scn.bin").read_bytes()[len(MAGIC):]
        (manifest, doc), (shard, blob) = _members(tmp_path / "ok.tar.gz")
        bad = tmp_path / "bad.tar.gz"
        _repack(bad, [(manifest, doc), (shard, blob + scenario_record)])
        with pytest.raises(ParseError, match="a scenario record in a file of rollouts") as info:
            read_submission(bad)
        assert info.value.offset == len(blob)

    def test_manifest_that_is_not_an_object_is_rejected(self, tmp_path):
        _tiny_archive(tmp_path / "ok.tar.gz")
        members = _members(tmp_path / "ok.tar.gz")
        bad = tmp_path / "bad.tar.gz"
        _repack(bad, [("manifest.json", b"[1]")] + members[1:])
        with pytest.raises(ParseError, match="manifest.json is not a JSON object"):
            read_submission(bad)


class TestFormat1Archives:
    """Archives of format 1 hold kind-2 records, poses interleaved; they are refused."""

    @pytest.fixture
    def format1(self, tmp_path):
        synth = generate(SynthSpec(Template.FOLLOWING_PAIR, seed=3, noise_level=0.2))
        write_scenario_dir([synth], tmp_path / "scenarios")
        rollouts = generate_submission(synth.scenario, ConstantVelocityPolicy(),
                                       ConstantVelocityPolicy(), k=2, base_seed=0)
        archive = tmp_path / "format1.tar.gz"
        _reference_write_submission(archive, [(rollouts.scenario_id, _format1_record(rollouts))],
                                    {"rollouts_per_scenario": 2}, format_version=1)
        return archive, tmp_path / "scenarios"

    def test_kind_2_record_is_parse_error_naming_the_old_layout(self, format1):
        archive, _ = format1
        with pytest.raises(ParseError, match="kind-2 rollouts record: the interleaved") as info:
            read_submission(archive)
        assert info.value.offset == len(MAGIC)

    @pytest.mark.parametrize("command", ["validate", "evaluate"])
    def test_cli_exits_two_with_one_line(self, format1, tmp_path, command):
        archive, scenarios = format1
        argv = [command, "--archive", str(archive), "--scenarios", str(scenarios)]
        argv += (["--expected-rollouts", "2"] if command == "validate"
                 else ["--out", str(tmp_path / "report.json"), "--jobs", "1"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert "kind-2 rollouts record" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert not (tmp_path / "report.json").exists()


def _tiny_archive(path):
    """A two-scenario archive small enough to mutate many times per test."""
    rng = np.random.default_rng(11)
    bundles = [
        ScenarioRollouts(sid, np.array([3, 7]), rng.normal(size=(2, 2, 6, 4)))
        for sid in ("alpha", "beta")
    ]
    write_submission(path, map(encode_rollouts, bundles), {"seed": 0})
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

    def test_damage_that_breaks_decoding_reads_as_a_corrupt_archive(self, tmp_path):
        # Records are decoded as the archive is decompressed, ahead of the
        # gzip checks: a count changed inside a stored member makes the record
        # undecodable, yet the error must name the failed CRC32, not the count.
        (record,) = [encode_rollouts(b) for b in _bundles(1, large=0)]
        first = _split_members(record.members)[0]
        assert _stored(first)
        counts = 10 + 5 + 9 + 2 + len("s0000")  # gzip header, stored-block header, frame, id
        assert first[counts : counts + 4] == struct.pack("<I", 16)
        path = tmp_path / "ok.tar.gz"
        write_submission(path, [record], {})
        blob = path.read_bytes()
        at = blob.index(first) + counts
        bad = tmp_path / "bad.tar.gz"
        bad.write_bytes(blob[:at] + struct.pack("<I", 17) + blob[at + 4 :])
        with pytest.raises(ParseError, match="unreadable archive.*CRC"):
            read_submission(bad)
        # The same bytes behind valid checksums decode to a truncated record.
        raw = bytearray(gzip.decompress(record.members))
        raw[counts - 15 : counts - 11] = struct.pack("<I", 17)
        _reference_write_submission(tmp_path / "same.tar.gz", [("s0000", bytes(raw))], {})
        with pytest.raises(ParseError, match="truncated"):
            read_submission(tmp_path / "same.tar.gz")

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


def _reference_write_submission(path, records, manifest, format_version=2):
    """A single-stream writer, one ``GzipFile`` around ``tarfile``, as older versions of this
    package and other tools write archives: ``write_submission`` must reproduce its tar stream.

    ``records`` are ``(scenario id, record bytes)`` pairs: :func:`_decoded` turns encoded
    records into them, and :func:`_format1_record` makes the kind-2 records of format 1.
    """
    records = sorted(records)
    shard_count = max(1, math.ceil(len(records) / 150))
    shards = [[] for _ in range(shard_count)]
    for i, rec in enumerate(records):
        shards[i % shard_count].append(rec)
    doc = dict(manifest)
    doc["format_version"] = format_version
    doc["scenario_count"] = len(records)
    doc["shard_count"] = shard_count
    members = [("manifest.json", json.dumps(doc, indent=1, sort_keys=True).encode("utf-8"))]
    for i, group in enumerate(shards):
        blob = MAGIC + b"".join(record for _, record in group)
        members.append((f"rollouts.{i}-of-{shard_count}.bin", blob))
    with open(path, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0, compresslevel=4) as gz:
            with tarfile.open(fileobj=gz, mode="w") as tar:
                for name, blob in members:
                    info = tarfile.TarInfo(name=name)
                    info.size = len(blob)
                    info.mtime = 0
                    tar.addfile(info, io.BytesIO(blob))


def _decoded(records):
    """``(scenario id, record bytes)`` of encoded records."""
    return [(rec.scenario_id, gzip.decompress(rec.members)) for rec in records]


def _bundles(count, first_id_pad=0, large=None):
    """``count`` two-object bundles; bundle ``large`` holds 16 x 80 x 80 noisy poses, whose
    byte planes alternate between stored and deflated members."""
    rng = np.random.default_rng(count)
    return [
        ScenarioRollouts(f"s{i:04d}" + "_" * (first_id_pad if i == 0 else 0), np.arange(80) * 4
                         if i == large else np.array([3, 7]),
                         rng.normal(size=(16, 80, 80, 4) if i == large else (2, 2, 6, 4)))
        for i in range(count)
    ]


def _member_ends(blob):
    """The offset at which each gzip member of ``blob`` ends."""
    ends = [0]
    while ends[-1] < len(blob):
        member = zlib.decompressobj(31)
        member.decompress(blob[ends[-1]:])
        ends.append(len(blob) - len(member.unused_data))
    return ends[1:]


def _split_members(blob):
    ends = _member_ends(blob)
    return [blob[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _stored(member):
    """Whether a gzip member (a 10-byte header, as zlib writes it) opens with a stored block."""
    return (member[10] >> 1) & 3 == 0


class TestMemberArchive:
    """One or more gzip members per record; the tar stream is the single-stream writer's."""

    @pytest.mark.parametrize("count", [1, 24, 151])
    def test_tar_stream_equals_the_single_stream_writer(self, tmp_path, count):
        records = [encode_rollouts(b) for b in reversed(_bundles(count, large=count // 2))]
        manifest = {"seed": 0, "env_policy": "constant-velocity"}
        write_submission(tmp_path / "new.tar.gz", records, manifest)
        _reference_write_submission(tmp_path / "ref.tar.gz", _decoded(records), manifest)
        new, ref = (tmp_path / "new.tar.gz").read_bytes(), (tmp_path / "ref.tar.gz").read_bytes()
        assert gzip.decompress(new) == gzip.decompress(ref)
        shards = math.ceil(count / 150)
        per_record = [len(_member_ends(rec.members)) for rec in records]
        assert sorted(per_record)[-1] > 1
        assert len(_member_ends(new)) == shards + sum(per_record) + 1

    def test_single_stream_archive_reads_to_equal_entries(self, tmp_path):
        records = [encode_rollouts(b) for b in _bundles(151, large=5)]
        write_submission(tmp_path / "new.tar.gz", records, {"seed": 0})
        _reference_write_submission(tmp_path / "ref.tar.gz", _decoded(records), {"seed": 0})
        assert len(_member_ends((tmp_path / "ref.tar.gz").read_bytes())) == 1
        assert _archive_bytes(read_submission(tmp_path / "ref.tar.gz")) == _archive_bytes(
            read_submission(tmp_path / "new.tar.gz")
        )

    def test_cut_at_every_member_boundary_is_parse_error(self, tmp_path):
        # Shard 0's first id is padded so the shard ends on a tar block: tarfile
        # then sees a clean end where shard 1 is cut away, and only the manifest's
        # counts reveal the loss.  Shard 1 does not end on a block, so a cut before
        # the closing member is a tar-level error.  Record 3, in shard 1, is large
        # enough to span several stored and deflated members, so cuts fall inside it.
        sizes = [encode_rollouts(b).size for b in _bundles(151, large=3)]
        pad = -(len(MAGIC) + sum(sizes[0::2])) % tarfile.BLOCKSIZE
        assert (len(MAGIC) + sum(sizes[1::2])) % tarfile.BLOCKSIZE
        records = [encode_rollouts(b) for b in _bundles(151, first_id_pad=pad, large=3)]
        assert (len(MAGIC) + sum(r.size for r in records[0::2])) % tarfile.BLOCKSIZE == 0
        # Per channel: low six bytes stored (the header rides in the first), top two deflated.
        assert [_stored(m) for m in _split_members(records[3].members)] == [True, False] * 4
        per_record = [len(_member_ends(rec.members)) for rec in records]
        assert set(per_record[:3] + per_record[4:]) == {1}
        path = tmp_path / "whole.tar.gz"
        write_submission(path, records, {"seed": 0})
        blob = path.read_bytes()
        ends = _member_ends(blob)
        assert len(ends) == 2 + sum(per_record) + 1
        scenarios = tmp_path / "scenarios"
        write_scenario_dir([generate(SynthSpec(Template.FOLLOWING_PAIR, seed=3))], scenarios)
        cut = tmp_path / "cut.tar.gz"
        shard0_end = ends[76]  # shard 0: its header member, then 76 one-member records
        for end in [0] + ends[:-1]:
            cut.write_bytes(blob[:end])
            with pytest.raises(ParseError) as info:
                read_submission(cut)
            if end == shard0_end:
                assert "shard_count is 2, the archive holds 1" in str(info.value)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["validate", "--archive", str(cut), "--scenarios", str(scenarios)])
            assert code == 2 and err.getvalue().count("\n") == 1, err.getvalue()
            assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("key,value", [("scenario_count", 3), ("shard_count", 2)])
    def test_manifest_count_other_than_the_archive_holds_is_parse_error(self, tmp_path, key,
                                                                         value):
        _tiny_archive(tmp_path / "ok.tar.gz")
        (manifest, doc), *shards = _members(tmp_path / "ok.tar.gz")
        doc = json.dumps(dict(json.loads(doc), **{key: value})).encode()
        _repack(tmp_path / "bad.tar.gz", [(manifest, doc), *shards])
        with pytest.raises(ParseError, match=f"{key} is {value}, the archive holds"):
            read_submission(tmp_path / "bad.tar.gz")


class TestScenarioDir:
    def test_synth_dir_round_trip(self, tmp_path):
        synths = suite(3, 5, 0.0)
        write_scenario_dir(synths, tmp_path)
        back = read_scenario_dir(tmp_path)
        assert set(back) == {s.scenario.scenario_id for s in synths}
        fixture_files = list(tmp_path.glob("*.fixtures.json"))
        assert len(fixture_files) == 3

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(ParseError):
            read_scenario_dir(tmp_path)

    @pytest.mark.parametrize("fmt", ["json", "binary"])
    def test_writing_into_another_scenario_set_raises_and_writes_nothing(self, tmp_path, fmt):
        write_scenario_dir([generate(SynthSpec(Template.STRAIGHT_ROAD, seed=0))], tmp_path, fmt=fmt)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(OccupiedOutput, match="already holds scenario files"):
            write_scenario_dir([generate(SynthSpec(Template.STRAIGHT_ROAD, seed=5))], tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_duplicate_scenario_id_raises_naming_both_files(self, tmp_path):
        spec = SynthSpec(Template.FOLLOWING_PAIR, seed=3)
        write_scenario_dir([generate(spec)], tmp_path)
        scenario_id = generate(spec).scenario.scenario_id
        other = generate(replace(spec, noise_level=0.4)).scenario
        write_scenario(other, tmp_path / f"{scenario_id}.bin", "binary")
        with pytest.raises(ParseError) as info:
            read_scenario_dir(tmp_path)
        message = str(info.value)
        assert f"{scenario_id}.bin" in message and f"{scenario_id}.json" in message


class TestReports:
    def _bundles(self):
        pairs = []
        for synth in suite(2, 1, 0.1):
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

    @pytest.mark.parametrize(
        "doc",
        [[1], "weights", {"weights": [1]}, {"features": 5}, {"histograms": ["linear_speed"]}],
        ids=["list-root", "string-root", "list-weights", "number-features", "list-histograms"],
    )
    def test_badly_shaped_document_is_parse_error(self, doc):
        with pytest.raises(ParseError, match="must be a JSON object"):
            config_from_dict(doc)

    @pytest.mark.parametrize("field,value", [
        ("ttc_max", math.nan), ("ttc_max", -1.0), ("ttc_max", 0.0), ("ttc_max", math.inf),
        ("ttc_closing_eps", 0.0), ("ttc_closing_eps", math.nan),
        ("ttc_heading_threshold", -0.1), ("ttc_heading_threshold", 4.0),
        ("ttc_heading_threshold", math.nan), ("ttc_min_lateral", -1.0),
        ("ttc_min_lateral", math.inf),
    ])
    def test_bad_ttc_parameter_is_parse_error(self, field, value):
        doc = config_to_dict(DEFAULT_CONFIG)
        doc["features"][field] = value
        with pytest.raises(ParseError, match=f"features.{field} must be"):
            config_from_dict(doc)

    @pytest.mark.parametrize("field,value", [
        ("ttc_heading_threshold", 0.0), ("ttc_heading_threshold", math.pi), ("ttc_min_lateral", 0.0),
    ])
    def test_ttc_parameter_bounds_are_inclusive(self, field, value):
        doc = config_to_dict(DEFAULT_CONFIG)
        doc["features"][field] = value
        assert getattr(config_from_dict(doc).features, field) == value

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

    @pytest.mark.parametrize("where", ["", "features", "histograms.linear_speed"])
    def test_unknown_key_is_parse_error(self, where):
        doc = config_to_dict(DEFAULT_CONFIG)
        target = doc
        for key in filter(None, where.split(".")):
            target = target[key]
        target["ttc_maxx"] = 5.0
        with pytest.raises(ParseError, match="unknown key.*'ttc_maxx'"):
            config_from_dict(doc)

    @pytest.mark.parametrize("path,value,need", [
        (("per_object_histograms",), "false", "true or false"),
        (("per_object_histograms",), 0, "true or false"),
        (("histograms", "linear_speed", "bins"), 64.9, "an integer"),
        (("histograms", "linear_speed", "bins"), True, "an integer"),
        (("histograms", "linear_speed", "min"), "0", "a number"),
        (("features", "ttc_max"), "5.0", "a number"),
        (("features", "ttc_max"), True, "a number"),
        (("weights", "collision"), "0.1", "a number"),
        (("object_aggregation",), 1, "a string"),
        (("version",), "1", "an integer"),
    ], ids=["string-boolean", "number-boolean", "fraction-bins", "boolean-bins", "string-min",
            "string-ttc-max", "boolean-ttc-max", "string-weight", "number-aggregation",
            "string-version"])
    def test_value_of_the_wrong_json_type_is_parse_error(self, path, value, need):
        doc = config_to_dict(DEFAULT_CONFIG)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ParseError, match=f"{path[-1]} must be {need}, got"):
            config_from_dict(doc)

    @pytest.mark.parametrize("version", [0, 2, 7])
    def test_other_version_is_parse_error(self, version):
        doc = dict(config_to_dict(DEFAULT_CONFIG), version=version)
        with pytest.raises(ParseError, match=f"version must be 1, got {version}"):
            config_from_dict(doc)

    def test_integer_json_numbers_are_read_as_floats(self):
        doc = config_to_dict(DEFAULT_CONFIG)
        doc["features"]["ttc_max"] = 4
        doc["histograms"]["linear_speed"]["min"] = -30
        cfg = config_from_dict(doc)
        assert cfg.features.ttc_max == 4.0 and type(cfg.features.ttc_max) is float
        assert type(cfg.histograms[MetricKind.LINEAR_SPEED].min_value) is float

    def test_boolean_spec_pseudocount_override(self):
        doc = config_to_dict(DEFAULT_CONFIG)
        doc["histograms"]["collision"]["pseudocount"] = 0.5
        assert config_from_dict(doc).histograms[MetricKind.COLLISION].pseudocount == 0.5
