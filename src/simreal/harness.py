"""Closed-loop rollout engine.

The engine enforces the autoregression contract structurally: at every step
policies receive a context holding only the map and the poses produced
strictly before that step, then the environment policy and the AV policy are
queried for the same step against that same context.  Neither can observe
the other's current-step output, matching the required factorization of the
world model into an AV policy and an environment policy.  One call steps a
batch of scenarios, K rollouts each, in one pose buffer, so the per-step
cost of a policy call is paid once per batch rather than once per scenario.

Each rollout also records a trace: one sha256 digest of the scenario id, the
row ids and each step's poses, folded in as the step is produced.  The audit
recomputes the digest from the finished rollout.  It catches a step that was
rewritten after it was produced and is still rewritten when the rollout
ends, as well as a forged digest or rows that are not the trace's objects.
It does not catch leakage: the digest covers what policies returned, not
what the context exposed.  Nor does it catch a policy that rewrites the
logged history (read-only views stop accidental writes only), or a rewrite
undone before the rollout ends.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import PolicyContractViolation
from .scene import (
    MAX_SIMULATED_OBJECTS,
    MapFeature,
    Scenario,
    ScenarioRollouts,
    normalize_heading,
    rollout_problems,
    simulated_object_ids,
)

# Rollout seeds key numpy's SeedSequence, which takes integers in [0, 2**64).
SEED_LIMIT = 2**64

# numpy's SeedSequence (numpy/random/bit_generator.pyx) hashes 32-bit words
# with a running multiplier: xor it in, advance it, multiply by the new value.
# Hash i of the entropy mixing uses _ENTROPY_HASH[i] and [i + 1]; output word
# i of generate_state uses _STATE_HASH[i] and [i + 1].
_POOL_SIZE = 4
_MAX_WORDS = 6  # (seed, step, id): each value is one 32-bit word or two
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _multipliers(init: int, mult: int, count: int) -> tuple[np.uint32, ...]:
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return tuple(np.uint32(v) for v in values)


_ENTROPY_HASH = _multipliers(0x43B0D7E5, 0x931E8875, _MAX_WORDS * _POOL_SIZE)
_STATE_HASH = _multipliers(0x8B51F9DD, 0x58F38DED, _POOL_SIZE)


def _xorshift(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> np.uint32(16))


def _hashmix(value: np.ndarray, call: int) -> np.ndarray:
    return _xorshift((value ^ _ENTROPY_HASH[call]) * _ENTROPY_HASH[call + 1])


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(_MIX_MULT_L * x - _MIX_MULT_R * y)


def philox_keys(entropy) -> np.ndarray:
    """(n, 2) uint64 Philox keys of n (seed, step, id) rows of integers in [0, 2**64).

    Row i is ``SeedSequence(tuple(entropy[i])).generate_state(2, np.uint64)``,
    computed for all rows at once.  SeedSequence splits each value into
    32-bit words (one below 2**32, else two), hashes the first four words
    into its pool (zeros past the end), mixes the pool words with each other,
    then mixes every further word into each pool word.
    """
    entropy = np.asarray(entropy, dtype=np.uint64).reshape(-1, 3)
    n = len(entropy)
    two = entropy >= np.uint64(2**32)
    first = np.cumsum(1 + two, axis=1) - (1 + two)  # each value's first word
    words = np.zeros((n, _MAX_WORDS), dtype=np.uint32)
    rows, cols = np.nonzero(two)
    words[rows, first[rows, cols] + 1] = entropy[rows, cols] >> np.uint64(32)
    words[np.arange(n)[:, None], first] = entropy & np.uint64(0xFFFFFFFF)
    length = 3 + two.sum(axis=1)

    pool = [_hashmix(words[:, i], i) for i in range(_POOL_SIZE)]
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], call))
                call += 1
    for src in range(_POOL_SIZE, _MAX_WORDS):
        extra = length > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(extra, _mix(pool[dst], _hashmix(words[:, src], call)), pool[dst])
            call += 1

    out = [
        _xorshift((pool[i] ^ _STATE_HASH[i]) * _STATE_HASH[i + 1]).astype(np.uint64)
        for i in range(_POOL_SIZE)
    ]
    high = np.uint64(32)
    return np.stack([out[0] | (out[1] << high), out[2] | (out[3] << high)], axis=1)


# Philox4x64-10's round multipliers and key increments (Salmon et al., SC'11).
_PHILOX_MULT = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_MULT_LO, _MULT_HI = _PHILOX_MULT & 0xFFFFFFFF, _PHILOX_MULT >> 32


def _philox_first_block(keys: np.ndarray) -> np.ndarray:
    """(n, 4) uint64 words: ``Philox(key=keys[i]).random_raw(4)`` for each row of (n, 2) keys.

    numpy increments the zero counter first: these are the 10 rounds of counter
    [1, 0, 0, 0], two words wide, with 128-bit products built from 32-bit halves.
    """
    key = keys.T.copy()
    even, odd = key.copy(), np.zeros_like(key)  # round 1 gives [k0, 0, k1, M0]
    odd[1] = _PHILOX_MULT[0]
    for _ in range(9):
        key += _PHILOX_BUMP
        x_lo, x_hi = even & 0xFFFFFFFF, even >> 32
        cross_a, cross_b = _MULT_HI * x_lo, _MULT_LO * x_hi
        mid = (_MULT_LO * x_lo >> 32) + (cross_a & 0xFFFFFFFF) + (cross_b & 0xFFFFFFFF)
        high = _MULT_HI * x_hi + (cross_a >> 32) + (cross_b >> 32) + (mid >> 32)
        even, odd = high[::-1] ^ odd ^ key, (_PHILOX_MULT * even)[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]], axis=-1)


# Layer widths (wi) and fast-path thresholds (ki) of numpy's ziggurat
# standard normal, as big-endian words; a test re-derives both from numpy.
_ZIGGURAT_WI = np.frombuffer(bytes.fromhex("""
    3ccf493b7815d979 3c8b8d0be3fdf6c6 3c9250af3c2c5bb4 3c957cb938443b61 3c9801fce82fa70c
    3c9a230c2e4cd0bc 3c9c004d2f3861f7 3c9dac2f5a747274 3c9f32482d4cd5c3 3ca04d32278ebbad
    3ca0f5053b025d43 3ca192a697413677 3ca227a28f7a1af5 3ca2b52e3863d880 3ca33c3fc05791f5
    3ca3bd9ec1a2b12f 3ca439ef8dff9b55 3ca4b1bb363dfea7 3ca52575621ad374 3ca59580a707ce96
    3ca60231cfd97eea 3ca66bd261a37c3d 3ca6d2a292000570 3ca736dad346f8a6 3ca798ad10b32a77
    3ca7f845ad46f543 3ca855cc53430a77 3ca8b1649e7b769a 3ca90b2ea94ecf98 3ca96347822c1eea
    3ca9b9c98e38c546 3caa0eccdca4a72c 3caa62676d77cd59 3caab4ad6e101630 3cab05b16d136c9c
    3cab558487427a29 3caba4368e529f3a 3cabf1d62abf8232 3cac3e70f9594ef3 3cac8a13a5323b61
    3cacd4c9fe72268b 3cad1e9f0e80b748 3cad679d29e41f10 3cadafce0023b8c3 3cadf73aa9f17653
    3cae3debb5d2edfe 3cae83e9337a6f00 3caec93abdf982ce 3caf0de784f06226 3caf51f654d8f688
    3caf956d9e87d7ae 3cafd8537dfa2eac 3cb00d56e04234ec 3cb02e40f5398f9a 3cb04eea9e16a5fc
    3cb06f565b72a010 3cb08f869071f40b 3cb0af7d84bc6113 3cb0cf3d664bcc7f 3cb0eec84b16086b
    3cb10e20329515ee 3cb12d4707310fbe 3cb14c3e9f8e9141 3cb16b08bfc4201e 3cb189a71a78da34
    3cb1a81b51ee6d88 3cb1c666f8f82acb 3cb1e48b93e0d42e 3cb2028a9940a09f 3cb2206572c4c6e9
    3cb23e1d7de9c31f 3cb25bb40ca96bfb 3cb2792a661dd37f 3cb29681c719d71b 3cb2b3bb62b82eda
    3cb2d0d862e1b853 3cb2edd9e8cba98e 3cb30ac10d6e48d7 3cb3278ee1f4b930 3cb3444470265ea1
    3cb360e2baca52d5 3cb37d6abe05586a 3cb399dd6fb2b264 3cb3b63bbfb83d03 3cb3d28698561de0
    3cb3eebede725a83 3cb40ae571e09e74 3cb426fb2da6745d 3cb44300e83c30a4 3cb45ef773cac75d
    3cb47adf9e66c336 3cb496ba32488f2f 3cb4b287f602415d 3cb4ce49acb311dc 3cb4ea001638a605
    3cb505abef5e5562 3cb5214df20a8b5a 3cb53ce6d56a664f 3cb558774e1bb2c8 3cb574000e555f78
    3cb58f81c60e8514 3cb5aafd23241b59 3cb5c672d17d733d 3cb5e1e37b2f8cd3 3cb5fd4fc89f5e38
    3cb618b860a31fc3 3cb6341de8a2b0a2 3cb64f8104b7260b 3cb66ae257c99672 3cb6864283b13137
    3cb6a1a22950b2b1 3cb6bd01e8b343bb 3cb6d8626128d352 3cb6f3c43161f854 3cb70f27f78b68eb
    3cb72a8e516914c6 3cb745f7dc70eedc 3cb7616535e5731f 3cb77cd6faeff449 3cb7984dc8babd93
    3cb7b3ca3c8b1409 3cb7cf4cf3db22fb 3cb7ead68c73dee7 3cb80667a486ea1f 3cb82200dac88676
    3cb83da2ce899f15 3cb8594e1fd1f5bd 3cb875036f7a7ec5 3cb890c35f47f72d 3cb8ac8e9205c043
    3cb8c865aba10c9c 3cb8e44951446a27 3cb9003a2973b58f 3cb91c38dc288347 3cb9384612ef0afc
    3cb954627903a28a 3cb9708ebb70d5ee 3cb98ccb892e2a31 3cb9a919933f99bf 3cb9c5798cd5d92c
    3cb9e1ec2b6f7411 3cb9fe7226fad24a 3cba1b0c39f93692 3cba37bb21a2c85b 3cba547f9e0bbb88
    3cba715a724aa9a4 3cba8e4c64a0313d 3cbaab563e9ff108 3cbac878cd5af5ce 3cbae5b4e18bb336
    3cbb030b4fc3a11a 3cbb207cf09a985b 3cbb3e0aa0e00c00 3cbb5bb541ce3d03 3cbb797db93f8927
    3cbb9764f1e5f73c 3cbbb56bdb85256e 3cbbd3936b2ec0a2 3cbbf1dc9b81ae83 3cbc10486cec16a0
    3cbc2ed7e5f07a2d 3cbc4d8c136e0d1c 3cbc6c6608ec8705 3cbc8b66e0eba617 3cbcaa8fbd36a2ab
    3cbcc9e1c73bd690 3cbce95e3068e037 3cbd0906328b8f6e 3cbd28db1037ef20 3cbd48de1533c647
    3cbd691096e7f123 3cbd8973f4d7fba5 3cbdaa0999206e70 3cbdcad2f8fc490e 3cbdebd195522e37
    3cbe0d06fb49d21c 3cbe2e74c4ea46f6 3cbe501c99c1d188 3cbe72002f97fe25 3cbe94214b2abf0a
    3cbeb681c0f76f08 3cbed9237610a73a 3cbefc086101eca9 3cbf1f328ac25321 3cbf42a40fb74d6d
    3cbf665f20c90168 3cbf8a6604899782 3cbfaebb187122bf 3cbfd360d22fe785 3cbff859c118f60b
    3cc00ed447d3a075 3cc021a8028fc947 3cc034a983a902ab 3cc047da4e3ef5c7 3cc05b3bf6adb37e
    3cc06ed023a72668 3cc082988f632e17 3cc0969708e8a254 3cc0aacd7571c0c4 3cc0bf3dd1eed448
    3cc0d3ea34aa3d30 3cc0e8d4cf116593 3cc0fdffefa69fb6 3cc1136e04207041 3cc129219bbb5d35
    3cc13f1d69c4096d 3cc1556448602e3b 3cc16bf93b9deef3 3cc182df74d21261 3cc19a1a564eebac
    3cc1b1ad777f2f8e 3cc1c99ca971a694 3cc1e1ebfbe4ae39 3cc1fa9fc2e2d901 3cc213bc9d04cc81
    3cc22d477a6fd3ee 3cc24745a4ac9c24 3cc261bcc77658e0 3cc27cb2faa8592e 3cc2982ecd770e78
    3cc2b437532a0a52 3cc2d0d43196db97 3cc2ee0db1a978f5 3cc30becd256aeee 3cc32a7b5e68a4a3
    3cc349c405ae12a3 3cc369d27a33a840 3cc38ab39256410a 3cc3ac7570ae88fa 3cc3cf27b31704a6
    3cc3f2dbaa60f475 3cc417a49cb9e5da 3cc43d9815545e94 3cc464ce44a73a15 3cc48d62759c43bc
    3cc4b7739d6b5a27 3cc4e3250dcd8902 3cc5109f53e9ac41 3cc54011523a7e42 3cc571b1a94ae41b
    3cc5a5c08b718dd9 3cc5dc8a243ad0fe 3cc61669cf861e4c 3cc653ce7b006aea 3cc69540be9fe5c3
    3cc6db6b8d09e232 3cc72728f05f7a34 3cc7799556090673 3cc7d42df4d6ce8c 3cc839030529f234
    3cc8ab0fbfaa7c14 3cc92ee0946f4496 3cc9cbee014057ab 3cca8fdc7894775a 3ccb981f3878fdb1
    3ccd3bb48209ad33
"""), dtype=">f8").astype(np.float64)
_ZIGGURAT_KI = np.frombuffer(bytes.fromhex("""
    000ef33d8025ef6a 0000000000000000 000c08be98fbc6a8 000da354fabd8142 000e51f67ec1eeea
    000eb255e9d3f77e 000eef4b817ecab9 000f19470afa44aa 000f37ed61ffcb18 000f4f469561255c
    000f61a5e41ba396 000f707a755396a4 000f7cb2ec28449a 000f86f10c6357d3 000f8fa6578325de
    000f9724c74dd0da 000f9da907dbf509 000fa360f581fa74 000fa86fde5b4bf8 000facf160d354dc
    000fb0fb6718b90f 000fb49f8d5374c6 000fb7ec2366fe77 000fbaece9a1e50e 000fbdab9d040bed
    000fc03060ff6c57 000fc2821037a248 000fc4a67ae25bd1 000fc6a2977aee31 000fc87aa92896a4
    000fca325e4bde85 000fcbcce902231a 000fcd4d12f839c4 000fceb54d8fec99 000fd007bf1dc930
    000fd1464dd6c4e6 000fd272a8e2f450 000fd38e4ff0c91e 000fd49a9990b478 000fd598b8920f53
    000fd689c08e99ec 000fd76ea9c8e832 000fd848547b08e8 000fd9178bad2c8c 000fd9dd07a7add2
    000fda9970105e8c 000fdb4d5dc02e20 000fdbf95c5bfcd0 000fdc9debb99a7d 000fdd3b8118729d
    000fddd288342f90 000fde6364369f64 000fdeee708d514e 000fdf7401a6b42e 000fdff46599ed40
    000fe06fe4bc24f2 000fe0e6c225a258 000fe1593c28b84c 000fe1c78cbc3f99 000fe231e9db1caa
    000fe29885da1b91 000fe2fb8fb54186 000fe35b33558d4a 000fe3b799d0002a 000fe410e99ead7f
    000fe46746d47734 000fe4bad34c095c 000fe50baed29524 000fe559f74ebc78 000fe5a5c8e41212
    000fe5ef3e138689 000fe6366fd91078 000fe67b75c6d578 000fe6be661e11aa 000fe6ff55e5f4f2
    000fe73e5900a702 000fe77b823e9e39 000fe7b6e37070a2 000fe7f08d774243 000fe8289053f08c
    000fe85efb35173a 000fe893dc840864 000fe8c741f0cebc 000fe8f9387d4ef6 000fe929cc879b1d
    000fe95909d388ea 000fe986fb939aa2 000fe9b3ac714866 000fe9df2694b6d5 000fea0973abe67c
    000fea329cf166a4 000fea5aab32952c 000fea81a6d5741a 000feaa797de1cf0 000feacc85f3d920
    000feaf07865e63c 000feb13762fec13 000feb3585fe2a4a 000feb56ae3162b4 000feb76f4e284fa
    000feb965fe62014 000febb4f4cf9d7c 000febd2b8f449d0 000febefb16e2e3e 000fec0be31ebde8
    000fec2752b15a15 000fec42049dafd3 000fec5bfd29f196 000fec75406ceef4 000fec8dd2500cb4
    000feca5b6911f12 000fecbcf0c427fe 000fecd38454fb15 000fece97488c8b3 000fecfec47f91b7
    000fed1377358528 000fed278f844903 000fed3b10242f4c 000fed4dfbad586e 000fed605498c3dd
    000fed721d414fe8 000fed8357e4a982 000fed9406a42cc8 000feda42b85b704 000fedb3c8746ab4
    000fedc2df416652 000fedd171a46e52 000feddf813c8ad3 000feded0f909980 000fedfa1e0fd414
    000fee06ae124bc4 000fee12c0d95a06 000fee1e579006e0 000fee29734b6524 000fee34150ae4bc
    000fee3e3db89b3c 000fee47ee2982f4 000fee51271db086 000fee59e9407f41 000fee623528b42e
    000fee6a0b5897f1 000fee716c3e077a 000fee7858327b82 000fee7ecf7b06ba 000fee84d2484ab2
    000fee8a60b66343 000fee8f7accc851 000fee94207e25da 000fee9851a829ea 000fee9c0e13485c
    000fee9f557273f4 000feea22762ccae 000feea4836b42ac 000feea668fc2d71 000feea7d76ed6fa
    000feea8ce04fa0a 000feea94be8333b 000feea950296410 000feea8d9c0075e 000feea7e7897654
    000feea678481d24 000feea48aa29e83 000feea21d22e4da 000fee9f2e352024 000fee9bbc26af2e
    000fee97c524f2e4 000fee93473c0a3a 000fee8e40557516 000fee88ae369c7a 000fee828e7f3dfd
    000fee7bdea7b888 000fee749bff37ff 000fee6cc3a9bd5e 000fee64529e007e 000fee5b45a32888
    000fee51994e57b6 000fee474a0006cf 000fee3c53e12c50 000fee30b2e02ad8 000fee2462ad8205
    000fee175eb83c5a 000fee09a22a1447 000fedfb27e349cc 000fedebea76216c 000feddbe422047e
    000fedcb0ece39d3 000fedb964042cf4 000feda6dce938c9 000fed937237e98d 000fed7f1c38a836
    000fed69d2b9c02b 000fed538d06ae00 000fed3c41dea422 000fed23e76a2fd8 000fed0a732fe644
    000fecefda07fe34 000fecd4100eb7b8 000fecb708956eb4 000fec98b61230c1 000fec790a0da978
    000fec57f50f31fe 000fec356686c962 000fec114cb4b335 000febeb948e6fd0 000febc429a0b692
    000feb9af5ee0cdc 000feb6fe1c98542 000feb42d3ad1f9e 000feb13b00b2d4b 000feae2591a02e9
    000feaaeae992257 000fea788d8ee326 000fea3fcffd73e5 000fea044c8dd9f6 000fe9c5d62f563b
    000fe9843ba947a4 000fe93f471d4728 000fe8f6bd76c5d6 000fe8aa5dc4e8e6 000fe859e07ab1ea
    000fe804f690a940 000fe7ab488233c0 000fe74c751f6aa5 000fe6e8102aa202 000fe67da0b6abd8
    000fe60c9f38307e 000fe5947338f742 000fe51470977280 000fe48bd436f458 000fe3f9bffd1e37
    000fe35d35eeb19c 000fe2b5122fe4fe 000fe20003995557 000fe13c82788314 000fe068c4ee67b0
    000fdf82b02b71aa 000fde87c57efeaa 000fdd7509c63bfd 000fdc46e529bf13 000fdaf8f82e0282
    000fd985e1b2ba75 000fd7e6ef48cf04 000fd613adbd650b 000fd40149e2f012 000fd1a1a7b4c7ac
    000fcee204761f9e 000fcba8d85e11b2 000fc7d26ecd2d22 000fc32b2f1e22ed 000fbd6581c0b83a
    000fb606c4005434 000fac40582a2874 000f9e971e014598 000f89fa48a41dfc 000f66c5f7f0302c
    000f1a5a4b331c4a
"""), dtype=">u8").astype(np.uint64)


def _ziggurat_fast_path(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``random_standard_normal`` of each uint64 word, if it returns at once, and
    whether it and every word before it on its row do: ``±rabs * wi[w & 0xff]``, sign
    bit 8, iff ``rabs < ki[w & 0xff]``.  Other words take branches that read more words."""
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(2**52 - 1)
    x = rabs.astype(np.float64) * _ZIGGURAT_WI[layer]
    fast = np.logical_and.accumulate(rabs < _ZIGGURAT_KI[layer], axis=-1)
    return np.where(words & np.uint64(0x100), -x, x), fast


# Streams are computed for at most this many (seed, step, id) rows at once;
# the derivation's temporaries, not its results, set the rollout's peak memory.
_KEY_BLOCK_ROWS = 4096


class _NoiseStreams:
    """The random streams of K lockstep rollouts: one Philox stream per (seed, step, object).

    Each stream is the one ``Generator(Philox(SeedSequence((seed, step, id))))``
    yields.  Streams are computed for blocks of consecutive steps, at most
    ``_KEY_BLOCK_ROWS`` rows a block (or one step, if a step alone has more),
    when a step of the block first draws, so rollouts that draw nothing pay
    nothing; only the block in use is kept.  It holds each row's key and the
    ziggurat fast path of its first Philox block, so a draw of n <= 4 is a
    slice where the first n draws are fast.  Other rows, and n > 4, reset one
    bit generator to the stream's start: its key, a zero counter and an empty buffer.
    """

    def __init__(self, seeds: tuple[int, ...], ids: tuple[int, ...]):
        self._seeds = seeds
        self._ids = ids
        self.has_negative_ids = bool(ids) and min(ids) < 0
        self._block_steps = max(1, _KEY_BLOCK_ROWS // (len(seeds) * max(1, len(ids))))
        self._block_first: int | None = None  # first step of self._block
        # (steps, K, A, 2) keys, (steps, K, A, 4) fast-path normals and "draws 0..j all fast"
        self._block: list[np.ndarray] = []
        self._generator = np.random.Generator(np.random.Philox(0))
        # Plain lists: the state setter reads them about twice as fast as arrays.
        self._start = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def _step_block(self, step: int) -> list[np.ndarray]:
        """One step's (K, A) rows of the block; a negative id gets a key no draw reads."""
        first = (step - 1) // self._block_steps * self._block_steps + 1
        if first != self._block_first:
            shape = (self._block_steps, len(self._seeds), len(self._ids))
            entropy = np.empty(shape + (3,), dtype=np.uint64)
            entropy[..., 0] = np.array(self._seeds, dtype=np.uint64)[:, None]
            entropy[..., 1] = np.arange(first, first + self._block_steps)[:, None, None]
            entropy[..., 2] = np.maximum(self._ids, 0)
            keys = philox_keys(entropy)
            block = (keys, *_ziggurat_fast_path(_philox_first_block(keys)))
            self._block = [a.reshape(shape + a.shape[1:]) for a in block]
            self._block_first = first
        return [a[step - first] for a in self._block]

    def draw(self, step: int, rows, n: int) -> np.ndarray:
        keys, normals, all_fast = (a[:, rows] for a in self._step_block(step))
        if n > 4:  # past the first Philox block: every row redraws
            shape = keys.shape[:2] + (n,)
            normals, all_fast = np.empty(shape), np.zeros(shape, dtype=bool)
        out, slow = normals[..., :n], ~all_fast[..., n - 1]
        redrawn = np.empty((int(slow.sum()), n))
        stream = self._start["state"]
        for key, row in zip(keys[slow].tolist(), redrawn):
            stream["key"] = key
            self._generator.bit_generator.state = self._start
            self._generator.standard_normal(out=row)
        out[slow] = redrawn
        return out


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


def _history_motion(poses: np.ndarray, valid: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """(n, 3) [speed, heading, z] of each row from its (n, H, 4) history poses.

    Speed comes from the two most recent valid history observations, over
    each row's timestep ``dt``; rows with a single valid observation get zero
    speed.  Every row is valid at the handover step, the last column.
    """
    n = valid.shape[1]
    last = n - 1 - np.argmax(valid[:, ::-1], axis=1)
    earlier = valid.copy()
    earlier[np.arange(len(valid)), last] = False
    prev = n - 1 - np.argmax(earlier[:, ::-1], axis=1)
    rows = np.arange(len(valid))
    last_pose = poses[rows, last]
    prev_pose = poses[rows, prev]
    gap = np.hypot(last_pose[:, 0] - prev_pose[:, 0], last_pose[:, 1] - prev_pose[:, 1])
    # An overflowing speed makes non-finite poses, which _step_policies rejects.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        speed = np.where(earlier.any(axis=1), gap / ((last - prev) * dt), 0.0)
    return np.stack([speed, last_pose[:, 3], last_pose[:, 2]], axis=1)


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy may condition on at one step of a batch of scenarios, K rollouts each.

    The batch stacks its scenarios' simulated objects on one row axis, each
    scenario's rows in ascending id order and the scenarios in batch order.
    ``scenario_of`` is the (R,) index into ``scenario_ids`` of every row,
    ``av_rows`` the (S,) row of each scenario's AV, ``dt`` the (R,) timestep
    of every row's scenario and ``map_features`` each scenario's map.  Ids
    are unique within a scenario only.  Every scenario of a batch shares one
    history length, so ``t0_index`` and ``step`` hold for all rows.

    Rollout k runs on seed ``seeds[k]``.  ``poses`` is (K, R, L, 4) as
    [x, y, z, heading] and ``valid`` is (R, L), shared by every rollout: L
    covers the history window plus all previously simulated steps, and
    states at or after the current step are structurally absent.  Policies
    address their objects by row.  Arrays are read-only views; policies must
    not retain them beyond the call.  ``motion`` is (R, 3) [speed, heading,
    z] of every row from the history window (see :meth:`history_motion`),
    which all rollouts share; the harness computes it once per batch.
    ``noise`` holds the rollouts' random streams (see :meth:`standard_normals`).
    """

    scenario_ids: tuple[str, ...]
    map_features: tuple[tuple[MapFeature, ...], ...]
    ids: tuple[int, ...]
    scenario_of: np.ndarray
    av_rows: np.ndarray
    step: int
    t0_index: int
    dt: np.ndarray
    seeds: tuple[int, ...]
    poses: np.ndarray
    valid: np.ndarray
    motion: np.ndarray
    noise: _NoiseStreams

    def describe_rows(self, rows) -> str:
        """``"<scenario id> objects [ids]"`` of those ``rows`` in the first scenario they touch."""
        rows = np.asarray(rows, dtype=np.intp)
        first = self.scenario_of[rows].min()
        mine = rows[self.scenario_of[rows] == first]
        return f"{self.scenario_ids[first]} objects {[self.ids[r] for r in mine.tolist()]}"

    def standard_normals(self, rows, n: int) -> np.ndarray:
        """(K, len(rows), n) standard normals; [k, i] starts the stream of (seeds[k], ids[rows[i]]).

        Streams are counter-based and keyed by (seed, step, object), so
        draws do not depend on call order, on the other rollouts or on the
        other scenarios of the batch: plans computed ahead of time and
        step-by-step execution see identical noise.  ``loc + scale * z``
        gives the bits of numpy's ``normal(loc, scale)``.  A negative object
        id cannot key a stream and is a contract violation.
        """
        if self.noise.has_negative_ids:
            negative = [r for r in np.asarray(rows).tolist() if self.ids[r] < 0]
            if negative:
                raise PolicyContractViolation(
                    f"{self.describe_rows(negative)} have negative ids, "
                    "which cannot key a random stream"
                )
        return self.noise.draw(self.step, rows, n)

    def last_valid_pose(self, rows) -> np.ndarray:
        """(K, n, 4) most recent valid pose of each controlled row in every rollout.

        That is the context's last column: simulated objects are valid at the
        handover step, and every simulated step fills all of a policy's rows.
        """
        return self.poses[:, rows, -1]

    def history_motion(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(speed, heading, z) arrays of the given rows, from the logged history only.

        Speed comes from the two most recent valid history observations;
        objects with a single valid observation get zero speed.
        """
        motion = self.motion[rows]
        return motion[:, 0], motion[:, 1], motion[:, 2]


def _step_policies(ctx: PolicyContext, queries, out: np.ndarray) -> None:
    """Step every ``(policy, rows, who)`` of ``queries`` at ``ctx.step`` into ``out[:, rows]``.

    ``out`` is the step's (K, R, 4) poses, rows in ``ctx.ids`` order.  Every
    policy is queried against the same context before any output is looked
    at.  Each output must then be a (K, len(rows), 4) float array, every row
    of ``out`` must be finite, and each heading is wrapped in place.
    """
    outputs = [policy.step(ctx, rows) for policy, rows, _ in queries]
    k = len(ctx.seeds)
    for (_, rows, who), output in zip(queries, outputs):
        try:
            poses = np.asarray(output, dtype=float)
        except (TypeError, ValueError) as exc:
            raise PolicyContractViolation(
                f"{who} policy at step {ctx.step}: output is not a pose array ({exc})"
            ) from exc
        if poses.shape != (k, len(rows), 4):
            raise PolicyContractViolation(
                f"{who} policy at step {ctx.step}: expected ({k}, {len(rows)}, 4) poses for its "
                f"controlled objects in each rollout, got shape {poses.shape}"
            )
        out[:, rows] = poses
    finite = np.isfinite(out)
    if not finite.all():
        bad = np.flatnonzero(~finite.all(axis=(0, 2)))
        raise PolicyContractViolation(
            f"policy output at step {ctx.step}: {ctx.describe_rows(bad)} are not finite"
        )
    out[..., 3] = normalize_heading(out[..., 3])


class Policy(ABC):
    """A per-step pose producer for a fixed set of controlled objects."""

    @abstractmethod
    def step(self, context: PolicyContext, rows: np.ndarray) -> np.ndarray:
        """Return (K, len(rows), 4) poses [x, y, z, heading] for context.step.

        ``rows`` indexes the controlled objects in ``context.ids``; entry
        [k] belongs to rollout k of the context.
        """

    def plan(self, context: PolicyContext, rows: np.ndarray, horizon: int) -> np.ndarray:
        """Produce ``horizon`` consecutive steps without re-observing others.

        Returns (horizon, K, len(rows), 4).  The default rolls :meth:`step`
        forward, with the checks the rollout applies to every step, against
        virtually extended contexts in which only the policy's own outputs
        advance; other objects stay frozen at their last known (now stale)
        state.  Plan holders use this to emulate slower replanning.
        """
        k, a, length, _ = context.poses.shape
        poses = np.zeros((k, a, length + horizon, 4))
        valid = np.zeros((a, length + horizon), dtype=bool)
        poses[:, :, :length] = context.poses
        valid[:, :length] = context.valid
        ctx = context
        for j in range(horizon):
            if j:
                ctx = replace(
                    ctx,
                    step=context.step + j,
                    poses=_read_only(poses[:, :, : length + j]),
                    valid=_read_only(valid[:, : length + j]),
                )
            _step_policies(ctx, [(self, rows, "planning")], poses[:, :, length + j])
            valid[rows, length + j] = True
        return np.moveaxis(poses[:, rows, length:], 2, 0)


@dataclass(frozen=True)
class RolloutTrace:
    """sha256 of the scenario id, the row ids as ``<i8`` and the (T, A, 4) poses as ``<f8``."""

    scenario_id: str
    seed: int
    ids: tuple[int, ...]
    digest: str


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    issues: tuple[str, ...]


def _rollout_hasher(scenario_id: str, ids: Sequence[int]):
    hasher = hashlib.sha256(scenario_id.encode("utf-8"))
    hasher.update(np.asarray(ids, dtype="<i8").tobytes())
    return hasher


def _lengths(scenario: Scenario) -> tuple[int, int]:
    return scenario.history_length, scenario.future_length


def as_batch(scenarios: Scenario | Sequence[Scenario]) -> tuple[Scenario, ...]:
    """A rollout batch: one scenario (a batch of one), or several sharing their history
    and future lengths."""
    batch = (scenarios,) if isinstance(scenarios, Scenario) else tuple(scenarios)
    if not batch:
        raise ValueError("a rollout batch needs at least one scenario")
    for scenario in batch[1:]:
        if _lengths(scenario) != _lengths(batch[0]):
            raise ValueError(
                f"{scenario.scenario_id}: history and future lengths {_lengths(scenario)} "
                f"differ from the batch's {_lengths(batch[0])}"
            )
    return batch


#: Simulated rows of one rollout batch at most: those of the largest scene, so a
#: batch needs no more memory than one scene at the object limit does.
MAX_BATCH_ROWS = MAX_SIMULATED_OBJECTS


def rollout_batches(scenarios: Sequence[Scenario]) -> list[tuple[Scenario, ...]]:
    """``scenarios`` cut, in order, into batches of at most :data:`MAX_BATCH_ROWS` simulated rows.

    A new batch also starts wherever the history or future length changes.
    """
    batches: list[list[Scenario]] = []
    rows = 0
    for scenario in scenarios:
        n = len(simulated_object_ids(scenario))
        fits = batches and rows + n <= MAX_BATCH_ROWS
        if fits and _lengths(batches[-1][0]) == _lengths(scenario):
            batches[-1].append(scenario)
            rows += n
        else:
            batches.append([scenario])
            rows = n
    return [tuple(batch) for batch in batches]


def closed_loop_rollout(
    scenarios: Scenario | Sequence[Scenario],
    av_policy: Policy,
    env_policy: Policy,
    seeds: Sequence[int],
) -> tuple[np.ndarray, tuple[RolloutTrace, ...]]:
    """Roll a batch of scenarios forward in lockstep, K rollouts each, one step at a time.

    The batch (see :func:`as_batch`; one scenario is a batch of one) lives in
    one (K, R, H+T, 4) pose buffer whose R rows are its scenarios' simulated
    objects, laid out as :class:`PolicyContext` describes.  Rollout k of
    every scenario runs on ``seeds[k]``; it shares only its scenario's
    logged history with the others, so it equals the rollout of that
    scenario alone with ``seeds=(seeds[k],)``, trace included.  Each
    scenario's controlled rows partition into {AV} and the rest: each step
    calls the environment policy once for every non-AV row of the batch and
    the AV policy once for every AV row, for all K rollouts, against the
    identical context, and merges the outputs afterwards.

    Returns the simulated futures as (K, R, T, 4) poses, plus one trace per
    (scenario, rollout), scenario by scenario, whose ``ids`` are that
    scenario's rows.
    """
    if av_policy is env_policy:
        raise PolicyContractViolation("AV and environment policies must be distinct objects")
    batch = as_batch(scenarios)
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("closed_loop_rollout needs at least one seed")
    for seed in seeds:
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    batch_ids = [tuple(sorted(simulated_object_ids(scenario))) for scenario in batch]
    counts = [len(object_ids) for object_ids in batch_ids]
    bounds = np.cumsum([0] + counts)
    ids = tuple(oid for object_ids in batch_ids for oid in object_ids)
    scenario_of = np.repeat(np.arange(len(batch)), counts)
    av_rows = np.array([
        start + object_ids.index(scenario.av_track_id)
        for scenario, object_ids, start in zip(batch, batch_ids, bounds)
    ])
    env_rows = np.setdiff1d(np.arange(len(ids)), av_rows)
    queries = [(env_policy, env_rows, "environment")] if len(env_rows) else []
    queries.append((av_policy, av_rows, "AV"))

    k = len(seeds)
    h, t_total = batch[0].history_length, batch[0].future_length
    poses = np.zeros((k, len(ids), h + t_total, 4))
    valid = np.zeros((len(ids), h + t_total), dtype=bool)
    for scenario, object_ids, lo, hi in zip(batch, batch_ids, bounds, bounds[1:]):
        rows = scenario.tracks.rows(object_ids)
        valid[lo:hi, :h] = scenario.tracks.valid[rows, :h]
        poses[:, lo:hi, :h] = np.where(valid[lo:hi, :h, None], scenario.tracks.poses[rows, :h], 0.0)
    dt = np.repeat([scenario.timestep for scenario in batch], counts)
    motion = _history_motion(poses[0, :, :h], valid[:, :h], dt)

    hashers = [
        [_rollout_hasher(scenario.scenario_id, object_ids) for _ in seeds]
        for scenario, object_ids in zip(batch, batch_ids)
    ]
    # Each step is copied here as it is produced and hashed per (scenario, rollout).
    record = np.empty((k, len(ids), 4), dtype="<f8")
    feeds = [
        (hasher.update, record[j, lo:hi])
        for scenario_hashers, lo, hi in zip(hashers, bounds, bounds[1:])
        for j, hasher in enumerate(scenario_hashers)
    ]
    noise = _NoiseStreams(seeds, ids)
    scenario_ids = tuple(scenario.scenario_id for scenario in batch)
    map_features = tuple(scenario.map_features for scenario in batch)
    # An overflowing policy option makes non-finite poses, which _step_policies rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, t_total + 1):
            upto = h + t - 1
            ctx = PolicyContext(
                scenario_ids=scenario_ids,
                map_features=map_features,
                ids=ids,
                scenario_of=scenario_of,
                av_rows=av_rows,
                step=t,
                t0_index=h - 1,
                dt=dt,
                seeds=seeds,
                poses=_read_only(poses[:, :, :upto]),
                valid=_read_only(valid[:, :upto]),
                motion=motion,
                noise=noise,
            )
            merged = poses[:, :, upto]
            _step_policies(ctx, queries, merged)
            valid[:, upto] = True
            # Commit the step now: a later rewrite of it no longer matches the digest.
            record[...] = merged
            for update, step_rows in feeds:
                update(step_rows)

    traces = tuple(
        RolloutTrace(scenario.scenario_id, seed, object_ids, hasher.hexdigest())
        for scenario, object_ids, scenario_hashers in zip(batch, batch_ids, hashers)
        for seed, hasher in zip(seeds, scenario_hashers)
    )
    return poses[:, :, h:], traces


def generate_submission(
    scenarios: Scenario | Sequence[Scenario],
    av_policy: Policy,
    env_policy: Policy,
    k: int = 32,
    base_seed: int = 0,
    with_traces: bool = False,
):
    """Run ``k`` independent lockstep rollouts seeded base_seed .. base_seed+k-1 per scenario.

    ``scenarios`` is rolled out as one batch (see :func:`closed_loop_rollout`).
    For one scenario this returns its :class:`ScenarioRollouts`, and with
    ``with_traces`` also its K traces; for a sequence, a list of each in
    batch order.  Rollouts that break :func:`~simreal.scene.rollout_problems`
    raise PolicyContractViolation naming their scenario.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    batch = as_batch(scenarios)
    futures, traces = closed_loop_rollout(
        batch, av_policy, env_policy, seeds=range(base_seed, base_seed + k)
    )
    bundles, bundle_traces = [], []
    lo = 0
    for i, scenario in enumerate(batch):
        mine = traces[i * k : (i + 1) * k]
        hi = lo + len(mine[0].ids)
        rollouts = ScenarioRollouts(scenario.scenario_id, mine[0].ids, futures[:, lo:hi])
        lo = hi
        problems = rollout_problems(scenario, rollouts)
        if problems:
            more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
            raise PolicyContractViolation(
                f"rollouts of {scenario.scenario_id} break the submission contract: "
                f"[{problems[0][0]}] {problems[0][1]}{more}"
            )
        bundles.append(rollouts)
        bundle_traces.append(mine)
    if isinstance(scenarios, Scenario):
        bundles, bundle_traces = bundles[0], bundle_traces[0]
    if with_traces:
        return bundles, bundle_traces
    return bundles


def audit_trace(trace: RolloutTrace, poses: np.ndarray, ids: Sequence[int]) -> AuditReport:
    """Mechanical check of a rollout trace against the finished rollout.

    ``poses`` is the rollout as (A, T, 4) and ``ids`` the object id of each
    row.  Verifies that the rows are the trace's objects in its order, then
    recomputes the digest from the rollout.
    """
    if tuple(ids) != trace.ids:
        return AuditReport(ok=False, issues=("rollout rows do not match the trace's ids",))
    hasher = _rollout_hasher(trace.scenario_id, trace.ids)
    hasher.update(np.ascontiguousarray(np.swapaxes(poses, 0, 1), dtype="<f8"))
    if hasher.hexdigest() != trace.digest:
        return AuditReport(ok=False, issues=("digest mismatch",))
    return AuditReport(ok=True, issues=())
