"""Differential: array-based bitgen vs the per-word reference writer/parser.

:mod:`repro.bitgen` builds each FDRI burst as one numpy array, folds it
into the configuration CRC in one call and parses bursts as slices;
:mod:`tests.differential.bitgen_reference` keeps the per-word code it
replaced.  On random valid PRRs of both catalog devices, and on
composites of two rectangles, they must agree byte for byte — default
and caller-supplied payloads, relocation, parse results, CRC verdicts
on damaged input and the errors raised for malformed input.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bitgen import (
    BitstreamParseError,
    ConfigCrc,
    frame_payload,
    generate_composite_bitstream,
    generate_partial_bitstream,
    parse_bitstream,
)
from repro.devices import XC5VLX110T, XC6VLX75T, Region
from repro.faults import payload_crc
from repro.relocation import find_compatible_regions, relocate_bitstream

from . import bitgen_reference as ref

DEVICES = (XC5VLX110T, XC6VLX75T)
MAX_WIDTH = 5
MAX_HEIGHT = 2

#: Per device, every valid one-row (col, width) span up to MAX_WIDTH.
SPANS = {
    device.name: [
        (col, width)
        for col in range(1, device.num_columns + 1)
        for width in range(1, MAX_WIDTH + 1)
        if col + width - 1 <= device.num_columns
        and device.is_valid_prr(Region(row=1, col=col, height=1, width=width))
    ]
    for device in DEVICES
}


@st.composite
def regions(draw, device):
    col, width = draw(st.sampled_from(SPANS[device.name]))
    height = draw(st.integers(1, min(MAX_HEIGHT, device.rows)))
    row = draw(st.integers(1, device.rows - height + 1))
    return Region(row=row, col=col, height=height, width=width)


@st.composite
def cases(draw):
    device = draw(st.sampled_from(DEVICES))
    region = draw(regions(device))
    name = draw(st.text("abcdefghijklmnopqrstuvwxyz_@", max_size=12))
    return device, region, name


@st.composite
def composite_cases(draw):
    device = draw(st.sampled_from(DEVICES))
    first = draw(regions(device))
    second = draw(regions(device))
    assume(not first.overlaps(second))
    return device, (first, second)


def outcome(parse, data):
    """A parse result, or the (type, message) of the error it raised."""
    try:
        return parse(data)
    except BitstreamParseError as error:
        return (type(error), str(error))


def generated(device, region, name):
    data = generate_partial_bitstream(device, region, design_name=name).to_bytes()
    return data, ref.generate_bytes(device, (region,), design_name=name)


@settings(max_examples=40, deadline=None)
@given(cases())
def test_default_payload_bytes_identical(case):
    device, region, name = case
    data, expected = generated(device, region, name)
    assert data == expected


@settings(max_examples=25, deadline=None)
@given(cases(), st.integers(0, 2**32 - 1))
def test_custom_payload_bytes_identical(case, salt):
    device, region, _ = case
    frame_words = device.family.frame_words

    def payload_fn(block_type, far):
        base = (far * 2654435761 + salt + block_type) & 0xFFFFFFFF
        return [(base ^ (i * 0x01000193)) & 0xFFFFFFFF for i in range(frame_words)]

    bitstream = generate_partial_bitstream(device, region, payload_fn=payload_fn)
    expected = ref.generate_bytes(device, (region,), payload_fn=payload_fn)
    assert bitstream.to_bytes() == expected
    assert bitstream.words == tuple(ref.generate_words(device, (region,), payload_fn=payload_fn))


@settings(max_examples=20, deadline=None)
@given(composite_cases())
def test_composite_bytes_identical(case):
    device, pair = case
    data = generate_composite_bitstream(device, pair, design_name="lshape").to_bytes()
    assert data == ref.generate_bytes(device, pair, design_name="lshape")
    assert parse_bitstream(data) == ref.parse_bitstream(data)


@settings(max_examples=20, deadline=None)
@given(cases(), st.data())
def test_relocation_identical(case, data):
    device, region, name = case
    targets = find_compatible_regions(device, region)
    assume(targets)
    target = data.draw(st.sampled_from(targets))
    bitstream = generate_partial_bitstream(device, region, design_name=name)
    moved = relocate_bitstream(device, bitstream, target)
    expected = ref.relocate_bytes(device, bitstream.to_bytes(), region, target, name)
    assert moved.to_bytes() == expected


@settings(max_examples=30, deadline=None)
@given(cases())
def test_parse_results_equal(case):
    device, region, name = case
    data, _ = generated(device, region, name)
    parsed = parse_bitstream(data)
    assert parsed == ref.parse_bitstream(data)
    assert parsed.crc_checked and parsed.crc_ok


@settings(max_examples=30, deadline=None)
@given(cases(), st.data())
def test_flipped_data_bit_fails_crc_in_both(case, data):
    device, region, name = case
    raw, _ = generated(device, region, name)
    parsed = parse_bitstream(raw)
    block = data.draw(st.sampled_from(parsed.blocks))
    # Word offset of the chosen block's burst data.
    start = parsed.initial_words
    for earlier in parsed.blocks[: parsed.blocks.index(block)]:
        start += earlier.total_words
    start += block.preamble_words
    word = data.draw(st.integers(start, start + block.data_words - 1))
    bit = data.draw(st.integers(0, 31))
    damaged = bytearray(raw)
    damaged[word * 4 + bit // 8] ^= 1 << (bit % 8)
    damaged = bytes(damaged)
    mine, theirs = parse_bitstream(damaged), ref.parse_bitstream(damaged)
    assert mine == theirs
    assert mine.crc_checked and not mine.crc_ok


@settings(max_examples=40, deadline=None)
@given(cases(), st.data())
def test_any_flipped_bit_same_outcome(case, data):
    device, region, name = case
    raw, _ = generated(device, region, name)
    bit = data.draw(st.integers(0, len(raw) * 8 - 1))
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << (bit % 8)
    damaged = bytes(damaged)
    assert outcome(parse_bitstream, damaged) == outcome(ref.parse_bitstream, damaged)


@settings(max_examples=40, deadline=None)
@given(cases(), st.data())
def test_truncated_or_misaligned_same_error(case, data):
    device, region, name = case
    raw, _ = generated(device, region, name)
    cut = data.draw(st.integers(0, len(raw) - 1))
    mine = outcome(parse_bitstream, raw[:cut])
    assert mine == outcome(ref.parse_bitstream, raw[:cut])
    if cut % 4:
        assert mine == (
            BitstreamParseError,
            f"bitstream length {cut} is not 32-bit word aligned",
        )


@pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
def test_tail_truncation_raises_typed_error(device):
    region = Region(row=1, col=SPANS[device.name][0][0], height=1, width=1)
    raw, _ = generated(device, region, "tail")
    for cut in (len(raw) - 60, len(raw) // 2, 20, 3):
        mine = outcome(parse_bitstream, raw[:cut])
        assert isinstance(mine, tuple)
        assert mine == outcome(ref.parse_bitstream, raw[:cut])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 255),
    st.lists(st.integers(0, 2**32 - 1), max_size=300),
    st.integers(0, 2**32 - 1),
)
def test_update_words_matches_looped_update(register, words, prefix):
    bulk, looped = ConfigCrc(), ConfigCrc()
    for crc in (bulk, looped):
        crc.update(9, prefix)
    bulk.update_words(register, words)
    for word in words:
        looped.update(register, word)
    assert bulk.value == looped.value


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-(2**40), 2**40),
    st.integers(-(2**34), 2**34),
    st.integers(0, 120),
)
def test_frame_payload_matches_reference(seed, far, frame_words):
    assert frame_payload(seed, far, frame_words) == ref.frame_payload(
        seed, far, frame_words
    )


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_payload_crc_matches_word_loop(data):
    assert payload_crc(data) == ref.payload_crc(data)
