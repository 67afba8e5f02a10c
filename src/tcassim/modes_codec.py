"""Bit-level Mode S frame codec.

Frames are 56 or 112 bits, MSB first: a 5-bit format code, a payload, and a
24-bit address/parity (AP) tail.  The tail is the CRC-24 of everything before
it XORed with a 24-bit address overlay; broadcast squitters use a zero
overlay and carry their address in the clear, addressed frames use the
target's address so only the addressee can validate the frame.

The supported formats (UF4/UF11/UF20 uplink, DF4/DF11/DF17/DF20 downlink)
are the rows of ``_FORMATS``: each row gives a format's kind, the overlay it
is sealed with and its payload layout.

A reply always echoes the format code of the interrogation that elicited it.

Altitude rides in a 13-bit field counting 25 ft increments from zero.  This
linear code is a simplification and is not interoperable with real
transponder altitude encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

UPLINK = "uplink"
DOWNLINK = "downlink"

SHORT_FRAME_BITS = 56
LONG_FRAME_BITS = 112
AP_BITS = 24

ALL_CALL_ADDRESS = 0xFFFFFF

# Generator polynomial for the 24-bit parity, x^24 bit explicit.
CRC24_GENERATOR = 0x1FFF409

UF_SURVEILLANCE_SHORT = 4
UF_ALL_CALL = 11
UF_SURVEILLANCE_LONG = 20

DF_SURVEILLANCE_SHORT = 4
DF_ALL_CALL_REPLY = 11
DF_EXTENDED_SQUITTER = 17
DF_SURVEILLANCE_LONG = 20

# Resolution advisory complement values (constraint imposed on the receiver).
RAC_NONE = 0
RAC_DO_NOT_PASS_ABOVE = 1
RAC_DO_NOT_PASS_BELOW = 2
RAC_CONTRADICTORY = 3

ALTITUDE_STEP_FT = 25
ALTITUDE_MAX_FT = ((1 << 13) - 1) * ALTITUDE_STEP_FT

# One row per supported (direction, format code): the kind the builders
# name it by, its sealing overlay, and its payload layout as (field, width)
# pairs between the format code and the AP tail.  An overlay of None means
# the frame is sealed with its addressee; a broadcast format has a fixed
# overlay and carries the address, if any, in its ``icao`` field.  Widths sum
# to 27 for short frames and 83 for long ones.  This table is the only place
# a format's kind, sealing and length are decided.
_FORMATS = {
    (UPLINK, UF_SURVEILLANCE_SHORT): ("surveillance_short", None, (("spare", 27),)),
    (UPLINK, UF_ALL_CALL): ("all_call", ALL_CALL_ADDRESS, (("spare", 27),)),
    (UPLINK, UF_SURVEILLANCE_LONG): (
        "surveillance_long", None, (("rac", 4), ("ra_active", 1), ("sender", 24), ("spare", 54))),
    (DOWNLINK, DF_SURVEILLANCE_SHORT): (
        "surveillance_short", None, (("altitude_code", 13), ("spare", 14))),
    (DOWNLINK, DF_ALL_CALL_REPLY): ("all_call", 0, (("icao", 24), ("spare", 3))),
    (DOWNLINK, DF_EXTENDED_SQUITTER): (
        "extended_squitter", 0, (("icao", 24), ("altitude_code", 13), ("spare", 46))),
    (DOWNLINK, DF_SURVEILLANCE_LONG): (
        "surveillance_long", None, (("altitude_code", 13), ("rac", 4), ("ra_active", 1), ("spare", 65))),
}
_FRAME_BITS = {key: 5 + sum(width for _, width in layout) + AP_BITS
               for key, (_, _, layout) in _FORMATS.items()}
_CODE_BY_KIND = {(direction, kind): code
                 for (direction, code), (kind, _, _) in _FORMATS.items()}


class CodecError(ValueError):
    """Malformed frame, field out of range, or unsupported format."""


_HEX_DIGITS = re.compile("[0-9A-Fa-f]+")


def _read_hex(text: str, digits: tuple[int, ...], what: str) -> int:
    """The value of ``text`` when it is exactly one of ``digits`` ASCII hex
    digits, in either case, or a CodecError naming ``what``: no sign,
    ``0x`` prefix, underscore, space or other script's digit is read.  The
    one rule by which frames and transponder addresses are read as text."""
    if len(text) not in digits or not _HEX_DIGITS.fullmatch(text):
        counts = " or ".join(map(str, digits))
        raise CodecError(f"{what} must be {counts} hex digits, got {text!r}")
    return int(text, 16)


def parse_address(text: str) -> int:
    """A 24-bit transponder address written as exactly 6 hex digits."""
    return _read_hex(text, (6,), "transponder address")


def _build_crc_table() -> list[int]:
    poly = CRC24_GENERATOR & 0xFFFFFF
    table = []
    for byte in range(256):
        reg = byte << 16
        for _ in range(8):
            if reg & 0x800000:
                reg = ((reg << 1) ^ poly) & 0xFFFFFF
            else:
                reg = (reg << 1) & 0xFFFFFF
        table.append(reg)
    return table


_CRC_TABLE = _build_crc_table()


def _crc24_word(word: int, nbits: int) -> int:
    """CRC-24 of an MSB-first bit string packed into an int (nbits % 8 == 0)."""
    reg = 0
    for shift in range(nbits - 8, -8, -8):
        byte = (word >> shift) & 0xFF if shift >= 0 else 0
        reg = ((reg << 8) & 0xFFFFFF) ^ _CRC_TABLE[((reg >> 16) & 0xFF) ^ byte]
    return reg


def crc24(body_bits: Sequence[int]) -> int:
    """Parity of a frame body (the frame minus its 24-bit tail).

    Accepts the two body lengths that occur on the air: 32 bits for short
    frames and 88 for long ones.
    """
    n = len(body_bits)
    if n not in (SHORT_FRAME_BITS - AP_BITS, LONG_FRAME_BITS - AP_BITS):
        raise CodecError(f"body must be 32 or 88 bits, got {n}")
    word = 0
    for b in body_bits:
        b = int(b)  # numpy scalars would drag the shift into wrapping uint8 math
        if b not in (0, 1):
            raise CodecError("body bits must be 0 or 1")
        word = (word << 1) | b
    return _crc24_word(word, n)


@dataclass(frozen=True)
class ModeSFrame:
    """An assembled frame: direction, bit length, and the bits as one int.

    A frame is an immutable value, so its hex text, its receiver-free
    decode (kind, fields, recovered overlay) and its ``parse_frame`` result
    for each expected address are computed on first use and kept on the
    frame: every receiver of one transmission and every log record of it
    share them.  A shared parse is read-only: its ``fields`` is a read-only
    view of the frame's decode.  The builders hand out one shared frame per
    distinct value (see ``_build``), so every transmission of that value
    shares them too.  A copy or a pickle carries the value alone.  In the
    package, only this module constructs frames.
    """

    direction: str
    nbits: int
    word: int

    def __post_init__(self) -> None:
        if self.direction not in (UPLINK, DOWNLINK):
            raise CodecError(f"direction must be uplink or downlink, got {self.direction!r}")
        if self.nbits not in (SHORT_FRAME_BITS, LONG_FRAME_BITS):
            raise CodecError(f"frame must be 56 or 112 bits, got {self.nbits}")
        if not 0 <= self.word < (1 << self.nbits):
            raise CodecError("frame word does not fit the declared bit length")

    @property
    def format_code(self) -> int:
        return self.word >> (self.nbits - 5)

    @property
    def ap(self) -> int:
        return self.word & 0xFFFFFF

    @property
    def body_word(self) -> int:
        return self.word >> AP_BITS

    @property
    def body_nbits(self) -> int:
        return self.nbits - AP_BITS

    def bits(self) -> np.ndarray:
        """Frame bits MSB first as a uint8 vector (for the modems)."""
        return np.unpackbits(np.frombuffer(self.word.to_bytes(self.nbits // 8, "big"), np.uint8))

    # The hex, the decode and the parses are kept in the instance dict, which
    # a frozen dataclass still lets us write.  This is what
    # functools.cached_property does, without the lock it takes on every
    # first use before Python 3.12, which costs more than the decode saves
    # on a frame only one receiver hears.

    def __reduce__(self) -> tuple:
        # the caches hold read-only views, which neither pickle nor copy
        return ModeSFrame, (self.direction, self.nbits, self.word)

    def to_hex(self) -> str:
        text = self.__dict__.get("_hex")
        if text is None:
            text = self.__dict__["_hex"] = f"{self.word:0{self.nbits // 4}x}"
        return text

    def _decode(self) -> tuple[str | None, int | None, Mapping[str, int], int]:
        """(kind, sealing overlay, fields, recovered overlay), where the
        recovered overlay is the CRC of the body XOR the AP tail, whoever
        receives the frame, and the fields are a read-only view.  Kind is
        None for an unsupported format code or a length its format does not
        have."""
        decoded = self.__dict__.get("_decoded")
        if decoded is None:
            recovered = _crc24_word(self.body_word, self.body_nbits) ^ self.ap
            key = (self.direction, self.format_code)
            fields: dict[str, int] = {}
            if _FRAME_BITS.get(key) != self.nbits:
                decoded = (None, None, MappingProxyType(fields), recovered)
            else:
                kind, overlay, layout = _FORMATS[key]
                shift = self.body_nbits - 5
                for name, width in layout:
                    shift -= width
                    fields[name] = (self.body_word >> shift) & ((1 << width) - 1)
                fields.pop("spare", None)
                decoded = (kind, overlay, MappingProxyType(fields), recovered)
            self.__dict__["_decoded"] = decoded
        return decoded

    @classmethod
    def from_hex(cls, text: str, direction: str) -> "ModeSFrame":
        """Frame from exactly 14 or 28 hex digits, as ``to_hex`` writes it
        (either case)."""
        word = _read_hex(text, (SHORT_FRAME_BITS // 4, LONG_FRAME_BITS // 4), "frame")
        return cls(direction, len(text) * 4, word)

    @classmethod
    def from_bits(cls, bits: Iterable[int], direction: str) -> "ModeSFrame":
        """Frame from bits MSB first, keeping the low bit of each value."""
        if not isinstance(bits, np.ndarray):
            bits = [int(b) & 1 for b in bits]  # Python ints may exceed int64
        low = (np.asarray(bits, dtype=np.int64) & 1).astype(np.uint8)
        word = int.from_bytes(np.packbits(low).tobytes(), "big") >> (-low.size % 8)
        return cls(direction, low.size, word)


@dataclass(frozen=True, slots=True)
class ParityCheck:
    """Outcome of AP validation.

    ``passed`` is None when an addressed frame was checked without an
    expected address; ``recovered_address`` is CRC XOR AP either way.
    """

    passed: bool | None
    recovered_address: int


def validate_icao(address: int) -> int:
    """``address`` when it is an int (not a bool) that fits in 24 bits."""
    if isinstance(address, bool) or not isinstance(address, int) or not 0 <= address <= 0xFFFFFF:
        raise CodecError(f"ICAO address must fit in 24 bits, got {address!r}")
    return address


def encode_altitude(altitude_ft: float) -> int:
    """13-bit altitude code of an int or a float: nearest 25 ft increment above zero."""
    if isinstance(altitude_ft, bool) or not isinstance(altitude_ft, (int, float)):
        raise CodecError(f"altitude must be a number, got {altitude_ft!r}")
    if not altitude_ft >= 0:
        raise CodecError(f"altitude below encodable range: {altitude_ft}")
    # capped just past the range, so inf or a huge int cannot overflow the division
    code = round(min(altitude_ft, (1 << 13) * ALTITUDE_STEP_FT) / ALTITUDE_STEP_FT)
    if code >= (1 << 13):
        raise CodecError(f"altitude above encodable range: {altitude_ft}")
    return code


def decode_altitude(code: int) -> int:
    if not 0 <= code < (1 << 13):
        raise CodecError(f"altitude code out of range: {code}")
    return code * ALTITUDE_STEP_FT


def frame_bit_length(direction: str, format_code: int) -> int | None:
    """Frame length implied by a decoded 5-bit header; None if unsupported.

    Receivers decode the header first and truncate the demodulated stream
    to this length.
    """
    return _FRAME_BITS.get((direction, format_code))


def frame_seal(frame: ModeSFrame,
               addressee: int | None = None) -> tuple[str | None, int | None, int]:
    """(kind, sealing overlay, recovered overlay) of a frame, read from its
    cached decode, which the first read fills with the CRC and every field.

    The sealing overlay is a broadcast format's own, or ``addressee`` (not
    validated here) for a format sealed with its addressee.  The frame
    passes its parity check iff the recovered overlay, the CRC of the body
    XOR the AP tail, equals it.  Kind is None for an unsupported format
    code or a length its format does not have.
    """
    kind, overlay, _, recovered = frame._decode()
    return kind, addressee if overlay is None else overlay, recovered


def verify_frame(frame: ModeSFrame, expected_address: int | None) -> ParityCheck:
    """Check the AP tail against an expected overlay.

    With an expected address, passes iff the recovered overlay equals it;
    without one the recovered overlay is reported and ``passed`` is None.
    """
    recovered = frame_seal(frame)[2]
    if expected_address is None:
        return ParityCheck(None, recovered)
    validate_icao(expected_address)
    return ParityCheck(recovered == expected_address, recovered)


def _build(direction: str, kind: str, address: int | None, **values: int) -> ModeSFrame:
    """The sealed frame of a row of ``_FORMATS``: the AP tail is the CRC of
    the body XOR the row's overlay.

    A row sealed with its addressee needs ``address`` (checked by the
    caller); a broadcast row puts any address other than its own overlay in
    its ``icao`` field.  A field left at 0 is absent; a value that is not an
    int, or a nonzero field or an address that the row does not carry, is a
    CodecError.

    Equal arguments return the same frame object, from ``_seal``'s bounded
    cache, so a periodic frame is sealed, and later decoded, once while it
    recurs.  That is safe because a frame is immutable and its lazily kept
    hex and decode depend on its value alone.  The values are checked here,
    before the cache hashes them, so ``rac=1.0`` or ``rac=[1]`` is refused
    and never answered with the frame built for ``rac=1``.
    """
    for name, value in values.items():
        if not isinstance(value, int):
            raise CodecError(f"field {name} must be an int, got {value!r}")
    return _seal(direction, kind, address, **values)


# Distinct frames the builders keep, about 1 kB each with a filled decode.
# An N = 40 ring sends about 3,200 distinct frames a second (an interrogation
# and a reply per ordered pair, a squitter per aircraft).
BUILT_FRAMES = 4096


@lru_cache(maxsize=BUILT_FRAMES, typed=True)
def _seal(direction: str, kind: str, address: int | None, **values: int) -> ModeSFrame:
    """``_build``'s frame, packed and sealed on a cache miss."""
    code = _CODE_BY_KIND.get((direction, kind))
    if code is None:
        raise CodecError(f"unknown {direction} kind {kind!r}")
    _, overlay, layout = _FORMATS[direction, code]
    if overlay is None:
        if address is None:
            raise CodecError(f"{kind} {direction} frame needs an address")
        overlay = address
    elif address not in (None, overlay):
        values["icao"] = address
    word = code
    for name, width in layout:
        value = values.pop(name, 0)
        if not 0 <= value < (1 << width):
            raise CodecError(f"field {name} does not fit {width} bits: {value}")
        word = (word << width) | value
    for name, value in values.items():
        if value or name == "icao":  # a leftover address is an error even when it is 0
            raise CodecError(f"{kind} {direction} frame carries no {name}")
    nbits = _FRAME_BITS[direction, code]
    ap = _crc24_word(word, nbits - AP_BITS) ^ overlay
    return ModeSFrame(direction, nbits, (word << AP_BITS) | ap)


def build_interrogation(kind: str, address: int | None = None, *,
                        rac: int = RAC_NONE, ra_active: bool = False,
                        sender: int = 0) -> ModeSFrame:
    """Assemble and seal an uplink frame.

    ``all_call`` is broadcast and sealed with the all-call address; the
    surveillance kinds are sealed with the target address.  Only the long
    kind carries resolution advisory coordination (rac, ra_active, sender).
    """
    return _build(UPLINK, kind, None if address is None else validate_icao(address),
                  rac=rac, ra_active=ra_active, sender=validate_icao(sender))


def build_reply(kind: str, address: int, *, altitude_ft: float = 0,
                rac: int = RAC_NONE, ra_active: bool = False) -> ModeSFrame:
    """Assemble and seal a downlink frame for the given transponder address.

    Broadcast kinds (all_call reply, extended squitter) put the address in
    the payload and seal with the zero overlay; surveillance replies seal
    with the address itself.  Only the long surveillance reply carries rac
    and ra_active, and the all_call reply carries no altitude.
    """
    return _build(DOWNLINK, kind, validate_icao(address), altitude_code=encode_altitude(altitude_ft),
                  rac=rac, ra_active=ra_active)


@dataclass(frozen=True, slots=True)
class DecodedFrame:
    """Parsed frame: format identity, extracted fields, and parity verdict.

    Shared and read-only: ``parse_frame`` keeps one per frame and expected
    address on the frame, and ``fields`` is a read-only view of the
    frame's decode."""

    format_code: int
    kind: str
    fields: Mapping[str, int]
    parity: ParityCheck | None

    @property
    def altitude_ft(self) -> int | None:
        code = self.fields.get("altitude_code")
        return None if code is None else decode_altitude(code)


def parse_frame(frame: ModeSFrame, expected_address: int | None = None) -> DecodedFrame:
    """Decode a frame: header first, then fields, then parity.

    Uplink all-calls verify against the all-call overlay, broadcast
    downlink formats against the zero overlay, addressed formats against
    ``expected_address`` when given.  An unrecognized format code yields
    kind ``"unknown"`` with no fields rather than an exception.

    An expected address that is not None must pass ``validate_icao``, on
    every format, whether or not it reads the address.  The parse is done
    once per frame and expected address and kept on the frame, so the same
    call returns the same read-only DecodedFrame.
    """
    if expected_address is not None:
        validate_icao(expected_address)
    parses = frame.__dict__.get("_parses")
    if parses is None:
        parses = frame.__dict__["_parses"] = {}
    decoded = parses.get(expected_address)
    if decoded is None:
        kind, overlay, _ = frame_seal(frame, expected_address)
        fields = frame._decode()[2]
        parity = None if kind is None else verify_frame(frame, overlay)
        decoded = parses[expected_address] = DecodedFrame(frame.format_code, kind or "unknown",
                                                          fields, parity)
    return decoded
