"""repro.fastpath — the transparent compiled codec tier.

Covers the policy ladder (off / auto-with-threshold / always), generation
invalidation, transparency (compiled results byte-identical to the
interpreter across every registry spec), error canonicalization, the
divergence guard (fallback, verify, demotion, obs counter), the batch
APIs, fingerprint sharing, and the generator's refusal of subclassed
fields.
"""

import random

import pytest

from repro import fastpath, obs
from repro.conformance.registry import all_spec_entries
from repro.core import codec
from repro.core.codec import DecodeError
from repro.core.fields import Bytes, ChecksumField, UInt
from repro.core.packet import PacketSpec
from repro.core.symbolic import this
from repro.wire.checksums import CHECKSUM_ALGORITHMS, register_algorithm


@pytest.fixture(autouse=True)
def _clean_fastpath():
    """Isolate cache, stats and policy; leave the process as found."""
    previous = fastpath.get_policy()
    fastpath.reset()
    yield
    fastpath.reset()
    fastpath.set_policy(previous)


def _sample(entry, count=6, seed=7):
    rng = random.Random(seed)
    packets = [entry.generate(rng) for _ in range(count)]
    values = [p._values for p in packets]
    with fastpath.use(mode="off"):
        wires = [entry.spec.encode(p) for p in packets]
    return values, wires


def _simple_spec(name="FpSimple"):
    return PacketSpec(
        name,
        fields=[UInt("kind", bits=8), UInt("count", bits=16)],
    )


# --- policy ---


def test_policy_rejects_bad_values():
    with pytest.raises(ValueError, match="mode"):
        fastpath.FastPath(mode="sometimes")
    with pytest.raises(ValueError, match="threshold"):
        fastpath.FastPath(threshold=0)
    with pytest.raises(TypeError):
        fastpath.set_policy("always")


def test_off_mode_never_compiles():
    spec = _simple_spec()
    values = {"kind": 1, "count": 2}
    with fastpath.use(mode="off"):
        for _ in range(200):
            codec.encode_verbatim(spec, values)
        assert fastpath.state_of(spec) is None
    assert fastpath.stats()["compiles"] == 0


def test_auto_mode_promotes_at_threshold():
    spec = _simple_spec()
    values = {"kind": 1, "count": 2}
    with fastpath.use(mode="auto", threshold=5):
        for _ in range(4):
            codec.encode_verbatim(spec, values)
        assert fastpath.state_of(spec).status == "counting"
        codec.encode_verbatim(spec, values)  # fifth call crosses the bar
        assert fastpath.state_of(spec).status == "compiled"


def test_always_mode_compiles_on_first_use():
    spec = _simple_spec()
    with fastpath.use(mode="always"):
        codec.encode_verbatim(spec, {"kind": 1, "count": 2})
        assert fastpath.state_of(spec).status == "compiled"
    assert fastpath.stats()["compiles"] == 1


def test_policy_change_invalidates_cached_decisions():
    spec = _simple_spec()
    with fastpath.use(mode="always"):
        codec.encode_verbatim(spec, {"kind": 1, "count": 2})
        assert fastpath.state_of(spec) is not None
    # the surrounding policy restore bumped the generation
    assert fastpath.state_of(spec) is None


def test_use_restores_previous_policy():
    before = fastpath.get_policy()
    with fastpath.use(mode="always", verify=True) as active:
        assert active.mode == "always" and active.verify
        assert fastpath.get_policy() is active
    assert fastpath.get_policy() == before


# --- transparency ---


def test_compiled_tier_is_transparent_for_every_registry_spec():
    for entry in all_spec_entries():
        spec = entry.spec
        values_list, wires = _sample(entry)
        with fastpath.use(mode="off"):
            interp_enc = [codec.encode_verbatim(spec, v) for v in values_list]
            interp_dec = [codec.decode_packet(spec, w) for w in wires]
            interp_chk = [codec.compute_checksums(spec, v) for v in values_list]
            interp_spans = [codec.field_spans(spec, v) for v in values_list]
        with fastpath.use(mode="always"):
            fast_enc = [codec.encode_verbatim(spec, v) for v in values_list]
            fast_dec = [codec.decode_packet(spec, w) for w in wires]
            fast_chk = [codec.compute_checksums(spec, v) for v in values_list]
            fast_spans = [codec.field_spans(spec, v) for v in values_list]
            state = fastpath.state_of(spec)
            assert state is not None and state.status == "compiled", entry.name
        assert fast_enc == interp_enc, entry.name
        assert fast_dec == interp_dec, entry.name
        assert fast_chk == interp_chk, entry.name
        assert fast_spans == interp_spans, entry.name
    assert fastpath.stats()["demotions"] == 0


def test_encode_errors_are_canonical_under_the_fast_path():
    entry = next(e for e in all_spec_entries() if e.name == "ArqData")
    values_list, wires = _sample(entry)
    bad = dict(values_list[0])
    bad["seq"] = 1 << 20  # does not fit in 8 bits

    with fastpath.use(mode="off"):
        with pytest.raises(ValueError) as interp_err:
            codec.encode_verbatim(entry.spec, bad)
    with fastpath.use(mode="always"):
        with pytest.raises(ValueError) as fast_err:
            codec.encode_verbatim(entry.spec, bad)
        with pytest.raises(DecodeError):
            codec.decode_packet(entry.spec, wires[0][:1])
    assert str(fast_err.value) == str(interp_err.value)
    # both tiers rejected: agreement, not divergence
    assert fastpath.stats()["demotions"] == 0


# --- divergence guard ---


def test_compiled_error_falls_back_and_demotes():
    entry = next(e for e in all_spec_entries() if e.name == "ArqAck")
    values_list, _ = _sample(entry)
    instr = obs.enable()
    instr.reset()
    try:
        with fastpath.use(mode="always"):
            expected = codec.encode_verbatim(entry.spec, values_list[0])
            state = fastpath.state_of(entry.spec)
            assert state.status == "compiled"

            def boom(values, spans=None):
                raise ValueError("injected codegen bug")

            state.codec = state.codec._replace(build=boom)
            # the interpreter answers; the spec is demoted for this generation
            assert codec.encode_verbatim(entry.spec, values_list[0]) == expected
            assert state.status == "interpreted"
            assert state.reason == "encode-error"
            # and stays interpreted (closures no longer dispatched)
            assert codec.encode_verbatim(entry.spec, values_list[0]) == expected
        assert fastpath.stats()["demotions"] == 1
        divergences = instr.registry.counter(
            "fastpath.divergences", spec="ArqAck", reason="encode-error"
        )
        assert divergences.value == 1
    finally:
        obs.disable()


def test_verify_mode_catches_wrong_bytes():
    entry = next(e for e in all_spec_entries() if e.name == "ArqAck")
    values_list, _ = _sample(entry)
    with fastpath.use(mode="always", verify=True):
        expected = codec.encode_verbatim(entry.spec, values_list[0])
        state = fastpath.state_of(entry.spec)
        wrong = b"\x00" * len(expected)

        def lies(values, spans=None):
            return wrong

        state.codec = state.codec._replace(build=lies)
        assert codec.encode_verbatim(entry.spec, values_list[0]) == expected
        assert state.status == "interpreted"
        assert state.reason == "encode-mismatch"
    assert fastpath.stats()["demotions"] == 1


def test_verify_mode_catches_wrong_decode():
    entry = next(e for e in all_spec_entries() if e.name == "ArqAck")
    values_list, wires = _sample(entry)
    with fastpath.use(mode="always", verify=True):
        expected = codec.decode_packet(entry.spec, wires[0])
        state = fastpath.state_of(entry.spec)

        def lies(data):
            return {name: 0 for name in expected}

        state.codec = state.codec._replace(parse=lies)
        assert codec.decode_packet(entry.spec, wires[0]) == expected
        assert state.status == "interpreted"
        assert state.reason == "decode-mismatch"
    assert fastpath.stats()["demotions"] == 1


# --- batch APIs ---


def test_batch_matches_single_calls():
    for entry in all_spec_entries():
        values_list, wires = _sample(entry, count=5)
        with fastpath.use(mode="off"):
            loop_enc = [codec.encode_verbatim(entry.spec, v) for v in values_list]
            loop_dec = [codec.decode_packet(entry.spec, w) for w in wires]
        with fastpath.use(mode="always"):
            assert fastpath.encode_many(entry.spec, values_list) == loop_enc
            assert fastpath.decode_many(entry.spec, wires) == loop_dec


def test_batch_forces_compilation_even_when_auto_is_cold():
    spec = _simple_spec()
    with fastpath.use(mode="auto", threshold=10_000):
        fastpath.encode_many(spec, [{"kind": 1, "count": 2}])
        assert fastpath.state_of(spec).status == "compiled"


def test_batch_accepts_packets_and_rejects_junk():
    entry = next(e for e in all_spec_entries() if e.name == "Handshake")
    rng = random.Random(3)
    packets = [entry.generate(rng) for _ in range(4)]
    with fastpath.use(mode="always"):
        wires = fastpath.encode_many(entry.spec, packets)
        assert wires == [entry.spec.encode(p) for p in packets]
        with pytest.raises(TypeError, match="field-value mapping"):
            fastpath.encode_many(entry.spec, [b"not a packet"])


def test_packetspec_batch_methods_return_packets():
    entry = next(e for e in all_spec_entries() if e.name == "ArqAck")
    values_list, wires = _sample(entry, count=4)
    with fastpath.use(mode="always"):
        encoded = entry.spec.encode_many(values_list)
        assert encoded == wires
        decoded = entry.spec.decode_many(wires)
    assert [p._values for p in decoded] == values_list
    assert all(p.spec is entry.spec for p in decoded)


def test_batch_records_one_obs_sample_per_batch():
    entry = next(e for e in all_spec_entries() if e.name == "ArqAck")
    values_list, wires = _sample(entry, count=6)
    instr = obs.enable()
    instr.reset()
    try:
        with fastpath.use(mode="always"):
            fastpath.encode_many(entry.spec, values_list, obs=instr)
            fastpath.decode_many(entry.spec, wires, obs=instr)
        registry = instr.registry
        assert registry.counter("codec.batches", op="encode", spec="ArqAck").value == 1
        assert registry.counter("codec.batches", op="decode", spec="ArqAck").value == 1
        assert (
            registry.counter("codec.encoded_packets", spec="ArqAck").value
            == len(values_list)
        )
        assert (
            registry.counter("codec.decoded_bytes", spec="ArqAck").value
            == sum(len(w) for w in wires)
        )
    finally:
        obs.disable()


# --- the cache ---


def test_structurally_identical_specs_share_one_codec():
    first, second = _simple_spec("AlphaWire"), _simple_spec("BetaWire")
    with fastpath.use(mode="always"):
        codec.encode_verbatim(first, {"kind": 1, "count": 2})
        codec.encode_verbatim(second, {"kind": 1, "count": 2})
        assert (
            fastpath.state_of(first).fingerprint
            == fastpath.state_of(second).fingerprint
        )
    stats = fastpath.stats()
    assert stats["compiles"] == 1
    assert stats["shared"] == 1
    assert stats["cached_codecs"] == 1


def test_subclassed_fields_are_refused_not_misread():
    class WideUInt(UInt):
        """A field whose overridden behaviour codegen cannot stage."""

        def encode(self, writer, value, context):  # pragma: no cover
            raise AssertionError("never staged")

    shadowed = PacketSpec(
        "FpShadowed",
        fields=[WideUInt("kind", bits=8), UInt("count", bits=16)],
    )
    plain = _simple_spec()
    with fastpath.use(mode="always"):
        assert fastpath.active_state(shadowed) is None
        state = fastpath.state_of(shadowed)
        assert state.status == "interpreted"
        assert state.reason.startswith("codegen:")
        # the same-shape spec with plain fields is unaffected
        codec.encode_verbatim(plain, {"kind": 1, "count": 2})
        assert fastpath.state_of(plain).status == "compiled"
        assert state.fingerprint != fastpath.state_of(plain).fingerprint
    stats = fastpath.stats()
    assert stats["failures"] == 1
    assert stats["compiles"] == 1


def _sum8_spec():
    if "test-fp-sum8" not in CHECKSUM_ALGORITHMS:
        register_algorithm("test-fp-sum8", 8, lambda data: sum(data) & 0xFF)
    return PacketSpec(
        "FpSum8",
        fields=[
            UInt("seq", bits=8),
            ChecksumField(
                "chk", algorithm="test-fp-sum8", over=("seq", "length", "payload")
            ),
            UInt("length", bits=8),
            Bytes("payload", length=this.length),
        ],
    )


@pytest.mark.parametrize("mode", ["auto", "always"])
def test_registered_checksum_algorithm_stays_interpreted(mode):
    # The generator emits only wire.checksums' own functions; a spec using
    # a registered algorithm is refused (CodegenError), not crashed on.
    spec = _sum8_spec()
    with fastpath.use(mode=mode, threshold=64):
        for index in range(200):
            payload = bytes([index & 0xFF, 1, 2])
            packet = spec.make(seq=index & 0xFF, length=3, payload=payload)
            wire = spec.encode(packet)
            assert wire[1] == (sum(wire) - wire[1]) & 0xFF
            assert spec.parse(wire).value == packet
        state = fastpath.state_of(spec)
        assert state.status == "interpreted"
        assert "test-fp-sum8" in state.reason
    stats = fastpath.stats()
    assert stats["failures"] == 1
    assert stats["compiles"] == 0


def test_refusal_and_demotion_are_terminal_until_reset():
    spec = _simple_spec()
    with fastpath.use(mode="always"):
        codec.encode_verbatim(spec, {"kind": 1, "count": 2})
        state = fastpath.state_of(spec)
        fastpath.demote(state, "test-demotion")
        # force=True must not resurrect a demoted spec
        assert fastpath.active_state(spec, force=True) is None
        assert fastpath.state_of(spec).status == "interpreted"
    fastpath.reset()
    with fastpath.use(mode="always"):
        codec.encode_verbatim(spec, {"kind": 1, "count": 2})
        assert fastpath.state_of(spec).status == "compiled"


def test_metrics_handle_caches_survive_reset_but_not_clear():
    instr = obs.enable()
    instr.reset()
    try:
        registry = instr.registry
        cache = registry.handle_cache("codec")
        cache["probe"] = "handle"
        registry.reset()  # zeroes values, keeps handles
        assert registry.handle_cache("codec")["probe"] == "handle"
        registry.clear()  # drops metrics, so handles must go too
        assert "probe" not in registry.handle_cache("codec")
    finally:
        obs.disable()


# --- conformance under verify ---


@pytest.mark.slow
def test_conformance_fuzz_smoke_under_verify():
    from repro.conformance.runner import run_all

    with fastpath.use(mode="always", verify=True):
        report = run_all(seed=0, budget=150, engines=["fuzz"], specs=["ArqData"])
    assert report.ok
    assert fastpath.stats()["demotions"] == 0
