"""Frame codec tests: CRC against the long-division oracle, seal/verify,
field packing, and the flip sweeps that pin single-bit error detection."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcassim import modes_codec as mc

from oracles import crc24_long_division

# Frozen from the bit-serial long-division oracle (see oracles.py).
CRC_88_LAST_BIT_SET = 0xFFF409
CRC_32_DEMO_BODY_5A0000F1 = 0x4D456A


def test_crc_all_zero_body_is_zero():
    assert mc.crc24([0] * 32) == 0
    assert mc.crc24([0] * 88) == 0


def test_crc_frozen_values():
    body88 = [0] * 87 + [1]
    assert mc.crc24(body88) == CRC_88_LAST_BIT_SET
    assert crc24_long_division(body88) == CRC_88_LAST_BIT_SET

    body32 = [int(b) for b in format(0x5A0000F1, "032b")]
    assert mc.crc24(body32) == CRC_32_DEMO_BODY_5A0000F1
    assert crc24_long_division(body32) == CRC_32_DEMO_BODY_5A0000F1


@pytest.mark.parametrize("nbits", [32, 88])
def test_crc_matches_long_division_oracle(nbits):
    rng = random.Random(0xC0DEC + nbits)
    for _ in range(200):
        body = [rng.randint(0, 1) for _ in range(nbits)]
        assert mc.crc24(body) == crc24_long_division(body)


def test_crc_rejects_wrong_length():
    with pytest.raises(mc.CodecError):
        mc.crc24([0] * 56)
    with pytest.raises(mc.CodecError):
        mc.crc24([0] * 31)


def test_crc_accepts_numpy_bit_vectors():
    # frame.bits() hands back uint8; the accumulator must not inherit that dtype
    frame = mc.build_reply("surveillance_short", 0x3C4EFA, altitude_ft=41400)
    body = frame.bits()[:-mc.AP_BITS]
    assert mc.crc24(body) == mc.crc24([int(b) for b in body])
    assert mc.crc24(body) ^ frame.ap == 0x3C4EFA


def _random_sealed_frame(rng: random.Random) -> tuple[mc.ModeSFrame, int]:
    address = rng.randrange(1, 1 << 24)
    choice = rng.choice([
        ("all_call", None),
        ("surveillance_short", address),
        ("surveillance_long", address),
        ("reply_short", address),
        ("reply_long", address),
        ("squitter", address),
        ("extended", address),
    ])
    kind, addr = choice
    alt = rng.randrange(0, 50_000)
    if kind == "all_call":
        return mc.build_interrogation("all_call"), mc.ALL_CALL_ADDRESS
    if kind == "surveillance_short":
        return mc.build_interrogation("surveillance_short", addr), addr
    if kind == "surveillance_long":
        return (
            mc.build_interrogation("surveillance_long", addr, rac=rng.randrange(4),
                                   ra_active=bool(rng.getrandbits(1)), sender=rng.randrange(1 << 24)),
            addr,
        )
    if kind == "reply_short":
        return mc.build_reply("surveillance_short", addr, altitude_ft=alt), addr
    if kind == "reply_long":
        return (
            mc.build_reply("surveillance_long", addr, altitude_ft=alt,
                           rac=rng.randrange(4), ra_active=bool(rng.getrandbits(1))),
            addr,
        )
    if kind == "squitter":
        return mc.build_reply("all_call", addr), 0
    return mc.build_reply("extended_squitter", addr, altitude_ft=alt), 0


def test_seal_verify_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        frame, overlay = _random_sealed_frame(rng)
        check = mc.verify_frame(frame, overlay)
        assert check.passed is True
        assert check.recovered_address == overlay


def test_verify_reports_recovered_address_without_expected():
    frame = mc.build_reply("surveillance_short", 0xABCDEF, altitude_ft=31_000)
    check = mc.verify_frame(frame, None)
    assert check.passed is None
    assert check.recovered_address == 0xABCDEF


@pytest.mark.parametrize("build", [
    lambda: mc.build_reply("surveillance_short", 0x123456, altitude_ft=12_000),
    lambda: mc.build_reply("surveillance_long", 0x654321, altitude_ft=37_500, rac=mc.RAC_DO_NOT_PASS_ABOVE, ra_active=True),
])
def test_single_bit_flip_always_breaks_parity(build):
    frame = build()
    overlay = mc.verify_frame(frame, None).recovered_address
    for i in range(frame.nbits):
        flipped = mc.ModeSFrame(frame.direction, frame.nbits, frame.word ^ (1 << i))
        assert mc.verify_frame(flipped, overlay).passed is False, f"flip at bit {i} went undetected"


def test_all_call_interrogation_sealed_with_all_call_address():
    frame = mc.build_interrogation("all_call")
    assert frame.format_code == mc.UF_ALL_CALL
    assert frame.nbits == 56
    assert mc.verify_frame(frame, mc.ALL_CALL_ADDRESS).passed is True
    decoded = mc.parse_frame(frame)
    assert decoded.kind == "all_call" and decoded.parity.passed is True
    with pytest.raises(mc.CodecError):
        mc.build_interrogation("all_call", 0x123456)


def test_reply_format_codes_echo_interrogation_codes():
    # A transponder answers format k with format k; the shared kinds must
    # therefore map to equal codes on both directions.
    for kind in ("all_call", "surveillance_short", "surveillance_long"):
        up = mc.build_interrogation(kind, None if kind == "all_call" else 1)
        down = mc.build_reply(kind, 1)
        assert up.format_code == down.format_code


def test_squitter_recovers_address_from_payload():
    frame = mc.build_reply("all_call", 0x4B1A2E)
    decoded = mc.parse_frame(frame)
    assert decoded.kind == "all_call"
    assert decoded.fields["icao"] == 0x4B1A2E
    assert decoded.parity.passed is True  # zero overlay, no expected address needed


def test_corrupted_squitter_fails_parity():
    frame = mc.build_reply("all_call", 0x4B1A2E)
    flipped = mc.ModeSFrame(frame.direction, frame.nbits, frame.word ^ (1 << 30))
    decoded = mc.parse_frame(flipped)
    assert decoded.parity.passed is False


def test_extended_squitter_carries_altitude():
    frame = mc.build_reply("extended_squitter", 0x3C4EFA, altitude_ft=41_400)
    assert frame.nbits == 112
    decoded = mc.parse_frame(frame)
    assert decoded.fields["icao"] == 0x3C4EFA
    assert decoded.altitude_ft == 41_400
    assert decoded.parity.passed is True


def test_long_surveillance_coordination_fields_round_trip():
    up = mc.build_interrogation("surveillance_long", 0x00AA01, rac=mc.RAC_DO_NOT_PASS_BELOW,
                                ra_active=True, sender=0x00AA02)
    dec = mc.parse_frame(up, expected_address=0x00AA01)
    assert dec.fields == {"rac": mc.RAC_DO_NOT_PASS_BELOW, "ra_active": 1, "sender": 0x00AA02}
    assert dec.parity.passed is True

    down = mc.build_reply("surveillance_long", 0x00AA02, altitude_ft=41_400,
                          rac=mc.RAC_DO_NOT_PASS_ABOVE, ra_active=True)
    dec = mc.parse_frame(down, expected_address=0x00AA02)
    assert dec.fields["rac"] == mc.RAC_DO_NOT_PASS_ABOVE
    assert dec.fields["ra_active"] == 1
    assert dec.altitude_ft == 41_400


def test_altitude_codec():
    assert mc.encode_altitude(0) == 0
    assert mc.decode_altitude(0) == 0
    assert mc.decode_altitude(mc.encode_altitude(41_400)) == 41_400
    # nearest-increment rounding
    assert mc.decode_altitude(mc.encode_altitude(41_412)) == 41_400
    assert mc.decode_altitude(mc.encode_altitude(41_413)) == 41_425
    assert mc.decode_altitude(8191) == mc.ALTITUDE_MAX_FT
    with pytest.raises(mc.CodecError):
        mc.encode_altitude(-1)
    with pytest.raises(mc.CodecError):
        mc.encode_altitude(mc.ALTITUDE_MAX_FT + 13)


def test_hex_round_trip():
    frame = mc.build_reply("extended_squitter", 0x3C4EFA, altitude_ft=35_000)
    text = frame.to_hex()
    assert len(text) == 28
    assert mc.ModeSFrame.from_hex(text, mc.DOWNLINK) == frame

    short = mc.build_interrogation("surveillance_short", 0x0000FF)
    assert len(short.to_hex()) == 14
    assert mc.ModeSFrame.from_hex(short.to_hex(), mc.UPLINK) == short

    with pytest.raises(mc.CodecError):
        mc.ModeSFrame.from_hex("abc", mc.UPLINK)
    with pytest.raises(mc.CodecError):
        mc.ModeSFrame.from_hex("zz" * 7, mc.UPLINK)
    assert mc.ModeSFrame.from_hex(text.upper(), mc.DOWNLINK) == frame


HEX_FRAME = "8d4840d6202cc371c32ce0576098"


# each is one character away from 28 hex digits, or 28 characters that are
# not all hex digits; int(text, 16) reads every one of them
@pytest.mark.parametrize("text", [
    "0x" + HEX_FRAME[2:], HEX_FRAME[:8] + "_" + HEX_FRAME[9:],
    "+" + HEX_FRAME[1:], " " + HEX_FRAME, HEX_FRAME + " ", HEX_FRAME + "\n",
    "\u0664" + HEX_FRAME[1:], "-" + HEX_FRAME[1:]],
    ids=["0x", "underscore", "plus", "leading-space", "trailing-space",
         "newline", "arabic-indic-digit", "minus"])
def test_a_frame_is_exactly_its_hex_digits(text):
    with pytest.raises(mc.CodecError, match="frame must be 14 or 28 hex digits"):
        mc.ModeSFrame.from_hex(text, mc.DOWNLINK)


@pytest.mark.parametrize("text", ["0x4840D6", "48_40_D6", "+4840D6", " 4840d6 ", "4840D6\n",
                                  "\u0664840D6", "4840D", "04840D6", ""])
def test_an_address_is_exactly_six_hex_digits(text):
    with pytest.raises(mc.CodecError, match="transponder address must be 6 hex digits"):
        mc.parse_address(text)


def test_an_address_reads_in_either_case():
    assert mc.parse_address("4840d6") == mc.parse_address("4840D6") == 0x4840D6
    assert mc.parse_address("000000") == 0 and mc.parse_address("FFFFFF") == 0xFFFFFF


def test_parse_unknown_format_is_a_result_not_an_exception():
    word = (7 << 51) | 0xDEAD  # format code 7 is not in the supported set
    frame = mc.ModeSFrame(mc.DOWNLINK, 56, word)
    decoded = mc.parse_frame(frame)
    assert decoded.kind == "unknown"
    assert decoded.fields == {}
    assert decoded.parity is None


def test_build_is_deterministic():
    a = mc.build_reply("surveillance_long", 0x77, altitude_ft=10_000, rac=1, ra_active=True)
    b = mc.build_reply("surveillance_long", 0x77, altitude_ft=10_000, rac=1, ra_active=True)
    assert a == b and a.to_hex() == b.to_hex()
    # equal builds share one frame, and so its hex and its decode
    assert b is a
    # the altitude is read through its code, so 10,010 ft is the same frame
    assert mc.build_reply("surveillance_long", 0x77, altitude_ft=10_010, rac=1,
                          ra_active=True) is a
    assert mc.build_interrogation("all_call") is mc.build_interrogation("all_call")
    assert mc.build_reply("surveillance_long", 0x78, altitude_ft=10_000) != a


# each row builds the frame with the field as an int first, so the cache
# holds it when the row's own value is asked for
@pytest.mark.parametrize("field,value,build", [
    ("rac", 1.0, lambda **kw: mc.build_interrogation("surveillance_long", 0xA10001,
                                                     sender=0xA10002, **kw)),
    ("rac", "1", lambda **kw: mc.build_interrogation("surveillance_long", 0xA10001, **kw)),
    ("rac", 2.0, lambda **kw: mc.build_reply("surveillance_long", 0xA10001, **kw)),
    ("rac", None, lambda **kw: mc.build_reply("surveillance_long", 0xA10001, **kw)),
    ("rac", [1], lambda **kw: mc.build_reply("surveillance_long", 0xA10001, **kw)),
    ("ra_active", "1", lambda **kw: mc.build_interrogation("surveillance_long", 0xA10001, **kw)),
    ("ra_active", "yes", lambda **kw: mc.build_reply("surveillance_long", 0xA10001, **kw)),
    ("ra_active", [1], lambda **kw: mc.build_reply("surveillance_long", 0xA10001, **kw)),
], ids=["UF20-rac-float", "UF20-rac-str", "DF20-rac-float", "DF20-rac-none", "DF20-rac-list",
        "UF20-ra_active-str", "DF20-ra_active-word", "DF20-ra_active-list"])
def test_a_field_that_is_not_an_int_is_named(field, value, build):
    build(**{field: 1})
    with pytest.raises(mc.CodecError, match=f"field {field} must be an int"):
        build(**{field: value})


@pytest.mark.parametrize("altitude", ["1000", None, True, [1000]],
                         ids=["str", "none", "bool", "list"])
def test_an_altitude_that_is_not_a_number_is_refused(altitude):
    with pytest.raises(mc.CodecError, match="altitude must be a number"):
        mc.build_reply("surveillance_long", 1, altitude_ft=altitude)


@pytest.mark.parametrize("call,match", [
    (lambda: mc.crc24([2] + [0] * 31), "body bits must be 0 or 1"),
    (lambda: mc.ModeSFrame("sideways", 56, 0), "direction"),
    (lambda: mc.ModeSFrame(mc.UPLINK, 56, 1 << 56), "does not fit"),
    (lambda: mc.decode_altitude(1 << 13), "altitude code out of range"),
], ids=["crc-bit-not-binary", "unknown-direction", "word-too-long", "altitude-code-too-big"])
def test_direct_construction_is_checked(call, match):
    with pytest.raises(mc.CodecError, match=match):
        call()


def test_field_range_errors():
    with pytest.raises(mc.CodecError):
        mc.build_interrogation("surveillance_long", 0x1, rac=16)
    with pytest.raises(mc.CodecError):
        mc.build_interrogation("surveillance_short", None)
    with pytest.raises(mc.CodecError):
        mc.build_reply("nonsense", 0x1)
    with pytest.raises(mc.CodecError):
        mc.validate_icao(1 << 24)
    with pytest.raises(mc.CodecError, match="ICAO address"):
        mc.build_interrogation("surveillance_short", [0x123456])


@pytest.mark.parametrize("build", [
    lambda: mc.build_reply("all_call", 0x123456, rac=1),
    lambda: mc.build_reply("all_call", 0x123456, ra_active=True),
    lambda: mc.build_reply("all_call", 0x123456, altitude_ft=1_000),
    lambda: mc.build_reply("extended_squitter", 0x123456, ra_active=True),
    lambda: mc.build_reply("extended_squitter", 0x123456, rac=2),
    lambda: mc.build_reply("surveillance_short", 0x123456, rac=1),
    lambda: mc.build_interrogation("all_call", rac=1),
    lambda: mc.build_interrogation("all_call", sender=5),
    lambda: mc.build_interrogation("all_call", 0),
    lambda: mc.build_interrogation("surveillance_short", 0x123456, sender=5),
    lambda: mc.build_interrogation("surveillance_short", 0x123456, ra_active=True),
], ids=["DF11-rac", "DF11-ra_active", "DF11-altitude", "DF17-ra_active", "DF17-rac",
        "DF4-rac", "UF11-rac", "UF11-sender", "UF11-address", "UF4-sender", "UF4-ra_active"])
def test_builders_reject_fields_the_format_does_not_carry(build):
    with pytest.raises(mc.CodecError):
        build()


# Every supported format, built from its public builder: the frame and the
# kind, code, fields and sealing overlay that parsing it must give back.
ADDRESS = st.integers(0, 0xFFFFFF)
ALTITUDE_CODE = st.integers(0, (1 << 13) - 1)
RAC = st.integers(0, 15)
BUILT = {
    (mc.UPLINK, mc.UF_ALL_CALL): st.just(
        (mc.build_interrogation("all_call"), "all_call", {}, mc.ALL_CALL_ADDRESS)),
    (mc.UPLINK, mc.UF_SURVEILLANCE_SHORT): ADDRESS.map(lambda a: (
        mc.build_interrogation("surveillance_short", a), "surveillance_short", {}, a)),
    (mc.UPLINK, mc.UF_SURVEILLANCE_LONG): st.tuples(ADDRESS, RAC, st.booleans(), ADDRESS).map(
        lambda t: (mc.build_interrogation("surveillance_long", t[0], rac=t[1], ra_active=t[2],
                                          sender=t[3]),
                   "surveillance_long", {"rac": t[1], "ra_active": int(t[2]), "sender": t[3]},
                   t[0])),
    (mc.DOWNLINK, mc.DF_ALL_CALL_REPLY): ADDRESS.map(lambda a: (
        mc.build_reply("all_call", a), "all_call", {"icao": a}, 0)),
    (mc.DOWNLINK, mc.DF_SURVEILLANCE_SHORT): st.tuples(ADDRESS, ALTITUDE_CODE).map(
        lambda t: (mc.build_reply("surveillance_short", t[0], altitude_ft=t[1] * 25),
                   "surveillance_short", {"altitude_code": t[1]}, t[0])),
    (mc.DOWNLINK, mc.DF_EXTENDED_SQUITTER): st.tuples(ADDRESS, ALTITUDE_CODE).map(
        lambda t: (mc.build_reply("extended_squitter", t[0], altitude_ft=t[1] * 25),
                   "extended_squitter", {"icao": t[0], "altitude_code": t[1]}, 0)),
    (mc.DOWNLINK, mc.DF_SURVEILLANCE_LONG): st.tuples(ADDRESS, ALTITUDE_CODE, RAC, st.booleans()).map(
        lambda t: (mc.build_reply("surveillance_long", t[0], altitude_ft=t[1] * 25, rac=t[2],
                                  ra_active=t[3]),
                   "surveillance_long", {"altitude_code": t[1], "rac": t[2], "ra_active": int(t[3])},
                   t[0])),
}

BROADCAST = {(mc.UPLINK, mc.UF_ALL_CALL), (mc.DOWNLINK, mc.DF_ALL_CALL_REPLY),
             (mc.DOWNLINK, mc.DF_EXTENDED_SQUITTER)}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(BUILT)).flatmap(BUILT.get))
def test_every_built_tail_is_the_oracle_crc_xor_the_overlay(case):
    frame, _, _, overlay = case
    body = [int(b) for b in format(frame.body_word, f"0{frame.body_nbits}b")]
    assert frame.ap == crc24_long_division(body) ^ overlay


def test_every_supported_format_has_a_builder_case():
    supported = {(direction, code) for direction in (mc.UPLINK, mc.DOWNLINK)
                 for code in range(32) if mc.frame_bit_length(direction, code) is not None}
    assert set(BUILT) == supported


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(BUILT)).flatmap(lambda key: st.tuples(st.just(key), BUILT[key])))
def test_parse_inverts_every_builder(case):
    key, (frame, kind, fields, overlay) = case
    assert (frame.direction, frame.format_code) == key
    assert frame.nbits == (mc.LONG_FRAME_BITS if key[1] >= 16 else mc.SHORT_FRAME_BITS)
    decoded = mc.parse_frame(frame, expected_address=overlay)
    assert (decoded.format_code, decoded.kind, decoded.fields) == (key[1], kind, fields)
    assert decoded.parity == mc.ParityCheck(True, overlay)
    # a broadcast format is checked against its own overlay whatever the
    # receiver expects; any other fails for every address but its addressee
    other = mc.parse_frame(frame, expected_address=overlay ^ 1)
    assert other.parity == mc.ParityCheck(key in BROADCAST, overlay)


def test_bits_vector_matches_word():
    frame = mc.build_reply("all_call", 0x00F00F)
    bits = frame.bits()
    assert bits.dtype == np.uint8 and bits.shape == (56,)
    assert mc.ModeSFrame.from_bits(bits, mc.DOWNLINK) == frame


@given(st.sampled_from([mc.SHORT_FRAME_BITS, mc.LONG_FRAME_BITS]).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_bits_are_msb_first_and_round_trip(sized_word):
    nbits, word = sized_word
    frame = mc.ModeSFrame(mc.UPLINK, nbits, word)
    reference = [(word >> i) & 1 for i in range(nbits - 1, -1, -1)]
    bits = frame.bits()
    assert bits.tolist() == reference
    assert mc.ModeSFrame.from_bits(reference, mc.UPLINK) == frame
    assert mc.ModeSFrame.from_bits(bits, mc.UPLINK) == frame


def test_from_bits_keeps_the_low_bit_of_each_value():
    frame = mc.build_reply("all_call", 0x00F00F)
    reference = frame.bits().tolist()
    widened = [b + 2 * k + (1 << 70) * (k % 3) for k, b in enumerate(reference)]
    assert mc.ModeSFrame.from_bits(iter(widened), mc.DOWNLINK) == frame
    assert mc.ModeSFrame.from_bits(np.array(reference) - 2, mc.DOWNLINK) == frame
    with pytest.raises(mc.CodecError):
        mc.ModeSFrame.from_bits(reference[:-1], mc.DOWNLINK)


# -- exact decoding against an independent decoder ---------------------------
#
# Each row is written from the format descriptions, not from the codec's
# table: kind, the overlay a broadcast format is checked against (None for
# "the receiver's expected address"), and each field's first bit (0 is the
# MSB) and width.  Codes below 16 are short frames, the rest long ones.
ORACLE_FORMATS = {
    (mc.UPLINK, 4): ("surveillance_short", None, {}),
    (mc.UPLINK, 11): ("all_call", 0xFFFFFF, {}),
    (mc.UPLINK, 20): ("surveillance_long", None,
                      {"rac": (5, 4), "ra_active": (9, 1), "sender": (10, 24)}),
    (mc.DOWNLINK, 4): ("surveillance_short", None, {"altitude_code": (5, 13)}),
    (mc.DOWNLINK, 11): ("all_call", 0, {"icao": (5, 24)}),
    (mc.DOWNLINK, 17): ("extended_squitter", 0, {"icao": (5, 24), "altitude_code": (29, 13)}),
    (mc.DOWNLINK, 20): ("surveillance_long", None,
                        {"altitude_code": (5, 13), "rac": (18, 4), "ra_active": (22, 1)}),
}


def _bits_of(word: int, nbits: int) -> list[int]:
    return [int(c) for c in format(word, f"0{nbits}b")]


def _number(bits: list[int]) -> int:
    return int("".join(map(str, bits)), 2)


def oracle_parse(direction: str, nbits: int, word: int, expected: int | None):
    """(format code, kind, fields, parity) decoded bit by bit, with the
    parity from ``oracles.crc24_long_division``."""
    bits = _bits_of(word, nbits)
    code = _number(bits[:5])
    row = ORACLE_FORMATS.get((direction, code))
    if row is None or nbits != (112 if code >= 16 else 56):
        return code, "unknown", {}, None
    kind, overlay, layout = row
    fields = {name: _number(bits[first:first + width]) for name, (first, width) in layout.items()}
    recovered = crc24_long_division(bits[:-24]) ^ _number(bits[-24:])
    check = expected if overlay is None else overlay
    return code, kind, fields, mc.ParityCheck(None if check is None else recovered == check,
                                              recovered)


def _parsed(frame: mc.ModeSFrame, expected: int | None):
    decoded = mc.parse_frame(frame, expected_address=expected)
    return decoded.format_code, decoded.kind, decoded.fields, decoded.parity


SIZED_WORD = st.sampled_from([mc.SHORT_FRAME_BITS, mc.LONG_FRAME_BITS]).flatmap(
    lambda n: st.tuples(st.just(n), st.one_of(
        st.integers(0, (1 << n) - 1),  # mostly unsupported codes
        st.tuples(st.integers(0, 31), st.integers(0, (1 << (n - 5)) - 1)).map(
            lambda t: (t[0] << (n - 5)) | t[1]))))  # every code at both lengths
FLIPPED_BUILT = st.sampled_from(sorted(BUILT)).flatmap(lambda key: BUILT[key]).flatmap(
    lambda built: st.tuples(st.just(built),
                            st.one_of(st.none(), st.integers(0, built[0].nbits - 1))))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([mc.UPLINK, mc.DOWNLINK]), SIZED_WORD,
       st.one_of(st.none(), ADDRESS))
def test_parse_of_random_words_matches_the_oracle(direction, sized_word, expected):
    nbits, word = sized_word
    frame = mc.ModeSFrame(direction, nbits, word)
    assert _parsed(frame, expected) == oracle_parse(direction, nbits, word, expected)


@settings(max_examples=300, deadline=None)
@given(FLIPPED_BUILT, st.sampled_from(["addressee", "other", "none", "random"]), ADDRESS)
def test_parse_of_built_and_flipped_frames_matches_the_oracle(case, which, random_address):
    (frame, _, _, overlay), flip = case
    if flip is not None:
        frame = mc.ModeSFrame(frame.direction, frame.nbits, frame.word ^ (1 << flip))
    expected = {"addressee": overlay, "other": overlay ^ 1, "none": None,
                "random": random_address}[which]
    assert _parsed(frame, expected) == oracle_parse(frame.direction, frame.nbits, frame.word,
                                                    expected)


def _flipped(case) -> mc.ModeSFrame:
    (frame, _, _, _), flip = case
    return frame if flip is None else mc.ModeSFrame(frame.direction, frame.nbits,
                                                    frame.word ^ (1 << flip))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.sampled_from([mc.UPLINK, mc.DOWNLINK]), SIZED_WORD).map(
                     lambda t: mc.ModeSFrame(t[0], *t[1])),
                 FLIPPED_BUILT.map(_flipped)),
       st.one_of(st.none(), ADDRESS))
def test_seal_gives_the_verdict_a_parse_gives(frame, addressee):
    # receivers reject a frame from its seal alone; the verdict must be the
    # one the independent decoder reaches with the same expected address
    kind, overlay, recovered = mc.frame_seal(frame, addressee)
    _, want_kind, _, want_parity = oracle_parse(frame.direction, frame.nbits, frame.word,
                                                addressee)
    if want_kind == "unknown":
        assert kind is None
        return
    assert kind == want_kind and recovered == want_parity.recovered_address
    assert (None if overlay is None else recovered == overlay) == want_parity.passed


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(set(BUILT) - BROADCAST)).flatmap(lambda key: BUILT[key]),
       st.integers(1, 0xFFFFFF))
def test_one_frame_gives_each_expected_address_its_own_verdict(built, mask):
    frame, _, _, addressee = built
    other = addressee ^ mask
    verdicts = [mc.parse_frame(frame, expected_address=a).parity
                for a in (addressee, other, None, addressee, other)]
    assert verdicts == [mc.ParityCheck(True, addressee), mc.ParityCheck(False, addressee),
                        mc.ParityCheck(None, addressee), mc.ParityCheck(True, addressee),
                        mc.ParityCheck(False, addressee)]


def test_bad_expected_address_is_still_an_error_after_a_parse():
    frame = mc.build_interrogation("surveillance_short", 0x3C4EFA)
    assert mc.parse_frame(frame, expected_address=0x3C4EFA).parity.passed
    for bad in (-1, 1 << 24, "3c4efa"):
        with pytest.raises(mc.CodecError):
            mc.parse_frame(frame, expected_address=bad)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BUILT)).flatmap(lambda key: BUILT[key]))
def test_each_parse_returns_its_own_fields(built):
    frame, kind, fields, overlay = built
    first = mc.parse_frame(frame, expected_address=overlay)
    first.fields.clear()
    first.fields["icao"] = -1
    second = mc.parse_frame(frame, expected_address=overlay)
    assert second.fields == fields and second.fields is not first.fields
    assert second.kind == kind and second.parity == mc.ParityCheck(True, overlay)


def test_hex_is_formatted_once_per_frame():
    frame = mc.build_reply("extended_squitter", 0x3C4EFA, altitude_ft=41_400)
    assert frame.to_hex() is frame.to_hex()
    assert frame == mc.ModeSFrame.from_hex(frame.to_hex(), mc.DOWNLINK)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([32, 88]).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))))
def test_crc_is_linear(case):
    n, a, b = case
    a_bits, b_bits, xor_bits = _bits_of(a, n), _bits_of(b, n), _bits_of(a ^ b, n)
    assert mc.crc24(a_bits) == crc24_long_division(a_bits)
    assert mc.crc24(b_bits) == crc24_long_division(b_bits)
    assert mc.crc24(xor_bits) == mc.crc24(a_bits) ^ mc.crc24(b_bits) == crc24_long_division(xor_bits)
