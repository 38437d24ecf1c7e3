"""Differential: array-based bitgen vs the per-word reference writer/parser.

:mod:`repro.bitgen` builds each FDRI burst as one numpy array, folds it
into the configuration CRC in one call and parses bursts as slices;
:mod:`tests.differential.bitgen_reference` keeps the per-word code it
replaced.  On random valid PRRs of both catalog devices, and on
composites of two rectangles, they must agree byte for byte — default
and caller-supplied payloads, relocation, parse results, CRC verdicts
on damaged input and the errors raised for malformed input.

The burst kernels are also checked one by one against the array code
they replaced: table payloads against the xorshift step loop, the packed
CRC record pass against per-word updates for every input kind the
library passes, and the one-array row FARs against the per-column
builder, errors included.
"""

import dataclasses

import numpy as np
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
from repro.bitgen.generator import _burst_fars, _xorshift_frames
from repro.devices import (
    BLOCK_TYPE_BRAM_CONTENT,
    BLOCK_TYPE_CONFIG,
    VIRTEX5,
    XC5VLX110T,
    XC6VLX75T,
    Region,
    make_device,
)
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


def _looped_crc(register, words, prefix):
    crc = ConfigCrc()
    crc.update(9, prefix)
    for word in words:
        crc.update(register, word)
    return crc.value


def _bulk_crc(register, words, prefix):
    crc = ConfigCrc()
    crc.update(9, prefix)
    crc.update_words(register, words)
    return crc.value


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 255),
    st.lists(st.integers(0, 2**32 - 1), max_size=300),
    st.integers(0, 2**32 - 1),
)
def test_update_words_matches_looped_update(register, words, prefix):
    assert _bulk_crc(register, words, prefix) == _looped_crc(register, words, prefix)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 255),
    st.integers(0, 8),
    st.integers(0, 90),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_update_words_on_native_bursts(register, frames, frame_words, seed, prefix):
    """A generator burst: a 2-D native ``uint32`` array, taken row by row."""
    burst = np.random.default_rng(seed).integers(
        0, 2**32, size=(frames, frame_words), dtype=np.uint32
    )
    expected = _looped_crc(register, burst.reshape(-1).tolist(), prefix)
    assert _bulk_crc(register, burst, prefix) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 255),
    st.binary(max_size=1200),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_update_words_on_big_endian_views(register, raw, skip, prefix):
    """A parser burst: a slice of the read-only ``>u4`` view of the bytes."""
    raw = raw[: len(raw) - len(raw) % 4]
    view = np.frombuffer(raw, dtype=">u4")[skip:]
    expected = _looped_crc(register, [int(word) for word in view], prefix)
    assert _bulk_crc(register, view, prefix) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-(2**70), 2**70),
    st.lists(st.integers(0, 2**32 - 1), max_size=64),
    st.integers(0, 120),
)
def test_table_payloads_match_step_loop(seed, fars, frame_words):
    far_array = np.array(fars, dtype=np.uint32)
    table = _xorshift_frames(seed, far_array, frame_words)
    assert table.dtype == np.uint32
    assert np.array_equal(
        table, ref.xorshift_frames_steps(seed, far_array, frame_words)
    )


@pytest.mark.parametrize("frame_words", [1, 41, 81, 101, 120])
@pytest.mark.parametrize("seed", [0, 7, 0xDEADBEEF, 2**32 - 1, -3])
def test_table_payloads_zero_state(seed, frame_words):
    """The FAR that zeroes the start state takes the ``state = 1`` fix."""
    far = ((seed ^ 0xDEADBEEF) * pow(0x9E3779B1, -1, 2**32)) % 2**32
    assert (seed ^ (far * 0x9E3779B1) ^ 0xDEADBEEF) % 2**32 == 0
    fars = np.array([far, far ^ 1, far], dtype=np.uint32)
    table = _xorshift_frames(seed, fars, frame_words)
    assert np.array_equal(table, ref.xorshift_frames_steps(seed, fars, frame_words))
    assert table[0].tolist() == ref.frame_payload(seed, far, frame_words)
    assert table[0, 0] == 270369  # one xorshift32 step from state 1


#: Past every FAR field limit, with every column kind: 40 rows (row <
#: 32), 262 columns (major < 256) and 130 frames per DSP column (minor <
#: 128).
WIDE_DEVICE = make_device(
    "wide-test",
    dataclasses.replace(VIRTEX5, name="virtex5-deep-dsp", cf_dsp=130),
    rows=40,
    layout="I C*120 B D K C*125 B D C*10 I",
)
FAR_DEVICES = (XC5VLX110T, XC6VLX75T, WIDE_DEVICE)


def _fars_outcome(builder, device, region, row, block_type):
    """The FAR array, or the (type, message) of the error raised."""
    try:
        return builder(device, region, row, block_type).tolist()
    except ValueError as error:
        return (type(error), str(error))


@st.composite
def far_rows(draw):
    """Any in-bounds row span of a device: all column kinds, not only PRRs."""
    device = draw(st.sampled_from(FAR_DEVICES))
    width = draw(st.integers(1, min(12, device.num_columns)))
    col = draw(st.integers(1, device.num_columns - width + 1))
    row = draw(st.integers(1, device.rows))
    block_type = draw(st.sampled_from((BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT)))
    return device, Region(row=row, col=col, height=1, width=width), row, block_type


@settings(max_examples=300, deadline=None)
@given(far_rows())
def test_burst_fars_match_per_column_builder(case):
    mine = _fars_outcome(_burst_fars, *case)
    assert mine == _fars_outcome(ref.burst_fars_per_column, *case)


@pytest.mark.parametrize(
    "row, col, width, message",
    [
        (33, 2, 4, "row=32 outside 0..31"),
        (40, 250, 12, "row=39 outside 0..31"),
        (1, 120, 5, "minor=129 outside 0..127"),
        # The DSP column's minor fails before the columns past major 255.
        (1, 250, 12, "minor=129 outside 0..127"),
        (1, 252, 10, "major=256 outside 0..255"),
        (5, 257, 3, "major=256 outside 0..255"),
    ],
)
@pytest.mark.parametrize("block_type", [BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT])
def test_burst_fars_out_of_range_same_error(row, col, width, message, block_type):
    region = Region(row=row, col=col, height=1, width=width)
    mine = _fars_outcome(_burst_fars, WIDE_DEVICE, region, row, block_type)
    assert mine == _fars_outcome(
        ref.burst_fars_per_column, WIDE_DEVICE, region, row, block_type
    )
    if block_type == BLOCK_TYPE_CONFIG:
        assert mine == (ValueError, message)


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
