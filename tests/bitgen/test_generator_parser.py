"""Tests for the bitstream generator and parser, including the headline
model-vs-measured validation."""

import pytest

from repro.bitgen.crc import ConfigCrc
from repro.bitgen.generator import (
    frame_payload,
    generate_composite_bitstream,
    generate_partial_bitstream,
)
from repro.bitgen.parser import BitstreamParseError, parse_bitstream
from repro.core.bitstream_model import estimate_bitstream
from repro.core.placement_search import find_prr
from repro.devices.catalog import XC5VLX110T, XC6SLX45, XC6VLX75T
from repro.devices.fabric import Region
from repro.devices.resources import ColumnKind
from repro.errors import InvalidInput

from tests.conftest import paper_requirements


def clb_region(device, row=1, height=1, width=1):
    col = device.columns_of_kind(ColumnKind.CLB)[0]
    return Region(row=row, col=col, height=height, width=width)


class TestCrc:
    def test_deterministic(self):
        a, b = ConfigCrc(), ConfigCrc()
        for crc in (a, b):
            crc.update(2, 0xDEADBEEF)
        assert a.value == b.value

    def test_register_tagged(self):
        a, b = ConfigCrc(), ConfigCrc()
        a.update(1, 0x1234)
        b.update(2, 0x1234)
        assert a.value != b.value

    def test_reset(self):
        crc = ConfigCrc()
        crc.update(1, 99)
        crc.reset()
        assert crc.value == 0


class TestFramePayload:
    def test_deterministic(self):
        assert frame_payload(1, 2, 41) == frame_payload(1, 2, 41)

    def test_seed_sensitivity(self):
        assert frame_payload(1, 2, 41) != frame_payload(3, 2, 41)

    def test_far_sensitivity(self):
        assert frame_payload(1, 2, 41) != frame_payload(1, 5, 41)

    def test_word_range(self):
        for word in frame_payload(7, 9, 100):
            assert 0 <= word < 1 << 32


class TestGenerator:
    def test_rejects_invalid_prr(self):
        with pytest.raises(ValueError, match="not a valid PRR"):
            generate_partial_bitstream(
                XC5VLX110T, Region(row=1, col=1, height=1, width=1)
            )

    @pytest.mark.parametrize("expected", [InvalidInput, ValueError])
    def test_invalid_regions_raise_typed_errors(self, expected):
        """Typed as InvalidInput, still caught as the ValueError they were."""
        region = clb_region(XC5VLX110T, width=2)
        shifted = Region(row=1, col=region.col + 1, height=1, width=2)
        with pytest.raises(expected, match="not a valid PRR"):
            generate_partial_bitstream(
                XC5VLX110T, Region(row=1, col=1, height=1, width=1)
            )
        with pytest.raises(expected, match="not a valid PRR"):
            generate_composite_bitstream(
                XC5VLX110T, [region, Region(row=1, col=1, height=1, width=1)]
            )
        with pytest.raises(expected, match="overlap"):
            generate_composite_bitstream(XC5VLX110T, [region, shifted])
        with pytest.raises(expected, match="has 3 words"):
            generate_partial_bitstream(
                XC5VLX110T, region, payload_fn=lambda block_type, far: [0, 1, 2]
            )

    def test_rejects_16_bit_families(self):
        with pytest.raises(ValueError, match="32-bit"):
            generate_partial_bitstream(XC6SLX45, clb_region(XC6SLX45))

    def test_deterministic_output(self):
        region = clb_region(XC5VLX110T)
        a = generate_partial_bitstream(XC5VLX110T, region, design_name="x")
        b = generate_partial_bitstream(XC5VLX110T, region, design_name="x")
        assert a.words == b.words

    def test_design_name_changes_payload_not_size(self):
        region = clb_region(XC5VLX110T)
        a = generate_partial_bitstream(XC5VLX110T, region, design_name="a")
        b = generate_partial_bitstream(XC5VLX110T, region, design_name="b")
        assert a.words != b.words
        assert a.size_bytes == b.size_bytes

    def test_to_bytes_is_big_endian_words(self):
        region = clb_region(XC5VLX110T)
        bitstream = generate_partial_bitstream(XC5VLX110T, region)
        raw = bitstream.to_bytes()
        assert len(raw) == 4 * len(bitstream)
        assert raw[:4] == b"\xff\xff\xff\xff"  # dummy word


class TestModelVsMeasured:
    """The validation the paper could not perform: eq. (18) vs real bytes."""

    @pytest.mark.parametrize(
        "workload,device",
        [
            ("fir", XC5VLX110T),
            ("mips", XC5VLX110T),
            ("sdram", XC5VLX110T),
            ("fir", XC6VLX75T),
            ("mips", XC6VLX75T),
            ("sdram", XC6VLX75T),
        ],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_exact_size_match(self, workload, device):
        prm = paper_requirements(workload, device.family.name)
        placed = find_prr(device, prm)
        model = estimate_bitstream(placed.geometry)
        bitstream = generate_partial_bitstream(
            device, placed.region, design_name=workload
        )
        assert bitstream.size_bytes == model.total_bytes

    def test_section_attribution_matches_model(self):
        prm = paper_requirements("mips", "virtex5")
        placed = find_prr(XC5VLX110T, prm)
        model = estimate_bitstream(placed.geometry).breakdown()
        parsed = parse_bitstream(
            generate_partial_bitstream(XC5VLX110T, placed.region).to_bytes()
        )
        assert parsed.section_bytes() == model


class TestParser:
    @pytest.fixture(scope="class")
    def mips_parsed(self):
        prm = paper_requirements("mips", "virtex5")
        placed = find_prr(XC5VLX110T, prm)
        raw = generate_partial_bitstream(
            XC5VLX110T, placed.region, design_name="mips"
        ).to_bytes()
        return parse_bitstream(raw)

    def test_crc_verifies(self, mips_parsed):
        assert mips_parsed.crc_checked and mips_parsed.crc_ok

    def test_rows_counted_from_config_blocks(self, mips_parsed):
        assert mips_parsed.rows == 1

    def test_bram_blocks_present(self, mips_parsed):
        assert len(mips_parsed.bram_blocks) == 1
        assert mips_parsed.bram_blocks[0].far.block_type == 1

    def test_commands_sequence(self, mips_parsed):
        from repro.bitgen.words import Command

        assert mips_parsed.commands[-1] is Command.DESYNC
        assert Command.WCFG in mips_parsed.commands
        assert Command.GRESTORE in mips_parsed.commands

    def test_multi_row_prr_has_per_row_blocks(self):
        prm = paper_requirements("fir", "virtex5")
        placed = find_prr(XC5VLX110T, prm)  # H = 5
        parsed = parse_bitstream(
            generate_partial_bitstream(XC5VLX110T, placed.region).to_bytes()
        )
        assert parsed.rows == 5
        assert len(parsed.bram_blocks) == 0

    def test_corrupted_data_word_fails_crc(self):
        region = clb_region(XC5VLX110T)
        words = list(generate_partial_bitstream(XC5VLX110T, region).words)
        words[100] ^= 0x1  # flip a bit in frame data
        raw = b"".join(w.to_bytes(4, "big") for w in words)
        parsed = parse_bitstream(raw)
        assert parsed.crc_checked and not parsed.crc_ok

    def test_any_corrupted_payload_word_fails_crc_round_trip(self):
        """Generate → flip bits across every FDRI burst → re-parse: the
        recomputed configuration CRC must flag each corruption."""
        prm = paper_requirements("sdram", "virtex5")
        placed = find_prr(XC5VLX110T, prm)
        bitstream = generate_partial_bitstream(
            XC5VLX110T, placed.region, design_name="sdram"
        )
        clean = parse_bitstream(bitstream.to_bytes())
        assert clean.crc_checked and clean.crc_ok
        # Word offsets inside each burst's data: first word of the first
        # burst, middle of every burst, last word of the last burst.
        offset = clean.initial_words
        data_offsets = []
        for i, block in enumerate(clean.blocks):
            start = offset + block.preamble_words
            data_offsets.append(start if i == 0 else start + block.data_words // 2)
            if i == len(clean.blocks) - 1:
                data_offsets.append(start + block.data_words - 1)
            offset += block.total_words
        words = list(bitstream.words)
        for word_index in data_offsets:
            for bit in (0, 17, 31):
                corrupted = list(words)
                corrupted[word_index] ^= 1 << bit
                parsed = parse_bitstream(
                    b"".join(w.to_bytes(4, "big") for w in corrupted)
                )
                assert parsed.crc_checked and not parsed.crc_ok, (
                    f"flip at word {word_index} bit {bit} went undetected"
                )

    def test_unaligned_input_rejected(self):
        with pytest.raises(BitstreamParseError, match="aligned"):
            parse_bitstream(b"\x00" * 7)

    def test_missing_sync_rejected(self):
        with pytest.raises(BitstreamParseError, match="sync"):
            parse_bitstream(b"\xff" * 64)

    def test_truncated_stream_rejected(self):
        region = clb_region(XC5VLX110T)
        raw = generate_partial_bitstream(XC5VLX110T, region).to_bytes()
        with pytest.raises(BitstreamParseError):
            parse_bitstream(raw[: len(raw) // 2 // 4 * 4])

    def test_garbage_after_sync_rejected(self):
        from repro.bitgen.words import SYNC_WORD

        raw = SYNC_WORD.to_bytes(4, "big") + (0x00000001).to_bytes(4, "big")
        with pytest.raises(BitstreamParseError):
            parse_bitstream(raw)
