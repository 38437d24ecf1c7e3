"""Unit and edge-case tests for the numpy columnar batch engine."""

import pytest

from repro.core import batch
from repro.core.api import batch_evaluate, evaluate_prm
from repro.core.params import PRMRequirements
from repro.core.placement_search import PlacementNotFoundError
from repro.devices import synthetic_device
from repro.devices.catalog import DEVICES, get_device
from repro.errors import InvalidInput
from repro.obs import trace as obs


def prm(name="p", pairs=1000, dsps=0, brams=0):
    return PRMRequirements(
        name=name, lut_ff_pairs=pairs, luts=pairs, ffs=pairs // 2,
        dsps=dsps, brams=brams,
    )


class TestDeviceColumns:
    def test_prefix_sums_match_window_index(self):
        device = get_device("xc5vlx110t")
        cols = batch.device_columns(device)
        prefixes = device.window_index.prefix_sums()
        for key, attr in (
            ("clb", cols.clb_prefix),
            ("dsp", cols.dsp_prefix),
            ("bram", cols.bram_prefix),
            ("blocked", cols.blocked_prefix),
        ):
            assert attr.tolist() == list(prefixes[key])
            assert attr.shape == (device.num_columns + 1,)

    def test_cached_per_device_instance(self):
        device = get_device("xc6vlx75t")
        assert batch.device_columns(device) is batch.device_columns(device)

    def test_family_constants_copied(self):
        device = get_device("xc6slx45")  # spartan6: bytes_per_word=2
        cols = batch.device_columns(device)
        assert cols.bytes_per_word == device.family.bytes_per_word
        assert cols.frame_words == device.family.frame_words
        assert cols.single_dsp_column == device.has_single_dsp_column


class TestGeometryGrid:
    def test_grid_shape_and_heights(self):
        device = get_device("xc5vlx110t")
        grid = batch.batch_prr_geometry(device, [1000, 2000], [0, 4], [0, 1])
        assert grid.w_clb.shape == (2, device.rows)
        assert grid.heights.tolist() == list(range(1, device.rows + 1))

    def test_matches_scalar_formulas(self):
        device = get_device("xc5vlx110t")
        family = device.family
        grid = batch.batch_prr_geometry(device, [1234], [0], [3])
        for h in range(1, device.rows + 1):
            clb_req = -(-1234 // family.luts_per_clb)
            assert grid.w_clb[0, h - 1] == -(-clb_req // (h * family.clb_per_col))
            assert grid.w_bram[0, h - 1] == -(-3 // (h * family.bram_per_col))

    def test_single_dsp_column_rule(self):
        device = get_device("xc5vlx110t")
        assert device.has_single_dsp_column
        # H_DSP = ceil(dsps / dsp_per_col); H below that is infeasible.
        dsps = 3 * device.family.dsp_per_col
        grid = batch.batch_prr_geometry(device, [100], [dsps], [0])
        assert not grid.feasible[0, 0]
        assert not grid.feasible[0, 1]
        assert grid.feasible[0, 2]
        assert (grid.w_dsp[0, :] == 1).all()

    def test_zero_requirements_masked_not_raised(self):
        device = get_device("xc5vlx110t")
        grid = batch.batch_prr_geometry(device, [0], [0], [0])
        assert not grid.feasible.any()

    def test_negative_requirements_rejected(self):
        device = get_device("xc5vlx110t")
        with pytest.raises(InvalidInput):
            batch.batch_prr_geometry(device, [-1], [0], [0])

    def test_shape_mismatch_rejected(self):
        device = get_device("xc5vlx110t")
        with pytest.raises(InvalidInput):
            batch.batch_prr_geometry(device, [1, 2], [0], [0])


class TestWindowPlacement:
    def test_window_wider_than_fabric_is_masked(self):
        device = synthetic_device(rows=2, clb_runs=(4,))
        # Demand more CLB columns than the fabric has at H=1.
        w = device.num_columns + 3
        has, first = batch.batch_window_placement(device, [w], [0], [0])
        assert not has[0]
        assert first[0] == 0

    def test_negative_column_counts_rejected(self):
        device = get_device("xc5vlx110t")
        with pytest.raises(InvalidInput):
            batch.batch_window_placement(device, [2], [-1], [1])

    def test_first_col_matches_window_index(self):
        device = get_device("xc5vlx110t")
        grid = batch.batch_prr_geometry(device, [3000], [0], [2])
        has, first = batch.batch_window_placement(
            device, grid.w_clb, grid.w_dsp, grid.w_bram, mask=grid.feasible
        )
        from repro.devices.resources import ResourceVector

        for j in range(device.rows):
            mix = ResourceVector(
                clb=int(grid.w_clb[0, j]),
                dsp=int(grid.w_dsp[0, j]),
                bram=int(grid.w_bram[0, j]),
            )
            starts = device.feasible_window_starts(mix)
            if has[0, j]:
                assert starts and starts[0] == int(first[0, j])
            else:
                assert not starts or grid.width[0, j] > device.num_columns


class TestBitstreamAndReconfig:
    def test_bytes_match_scalar_model(self):
        from repro.core.bitstream_model import bitstream_size_bytes
        from repro.core.prr_model import PRRGeometry
        from repro.devices.resources import ResourceVector

        device = get_device("xc6vlx75t")
        got = batch.batch_bitstream_bytes(device, [2, 3], [4, 1], [1, 0], [0, 2])
        for i, (h, wc, wd, wb) in enumerate([(2, 4, 1, 0), (3, 1, 0, 2)]):
            geometry = PRRGeometry(
                family=device.family,
                rows=h,
                columns=ResourceVector(clb=wc, dsp=wd, bram=wb),
            )
            assert int(got[i]) == bitstream_size_bytes(geometry)

    def test_reconfig_matches_scalar_and_broadcasts(self):
        from repro.core.reconfig_model import estimate_reconfig_time

        sizes = [100_000, 250_000]
        seconds = batch.batch_reconfig_time(
            sizes, controller_bytes_per_s=[400e6, 100e6], media_bytes_per_s=200e6
        )
        for i, rate in enumerate([400e6, 100e6]):
            scalar = estimate_reconfig_time(
                sizes[i], controller_bytes_per_s=rate, media_bytes_per_s=200e6
            )
            assert float(seconds[i]) == pytest.approx(scalar.seconds)

    def test_reconfig_validation(self):
        with pytest.raises(InvalidInput):
            batch.batch_reconfig_time([100], controller_bytes_per_s=0.0)
        with pytest.raises(InvalidInput):
            batch.batch_reconfig_time([-1])
        with pytest.raises(InvalidInput):
            batch.batch_reconfig_time([100], busy_factor=1.0)
        with pytest.raises(InvalidInput):
            batch.batch_reconfig_time([100], media_bytes_per_s=-1.0)


class TestBatchSelect:
    def test_unknown_objective(self):
        device = get_device("xc5vlx110t")
        with pytest.raises(InvalidInput):
            batch.batch_select(device, [100], [0], [0], objective="area")

    def test_infeasible_members_zeroed(self):
        device = get_device("xc5vlx110t")
        sel = batch.batch_select(device, [1000, 0], [0, 0], [0, 0])
        assert sel.feasible.tolist() == [True, False]
        assert int(sel.rows[1]) == 0
        assert int(sel.bitstream_bytes[1]) == 0
        assert sel.n_feasible == 1

    def test_empty_batch(self):
        device = get_device("xc5vlx110t")
        sel = batch.batch_select(device, [], [], [])
        assert len(sel) == 0
        assert sel.n_feasible == 0


class TestBatchEvaluateApi:
    def test_results_match_scalar(self):
        prms = [prm("a", 800), prm("b", 3000, brams=1), prm("c", 50)]
        result = batch_evaluate(prms, "xc5vlx110t")
        for i, p in enumerate(prms):
            assert result.result(i) == evaluate_prm(p, "xc5vlx110t")
        materialized = result.results()
        assert all(m is not None for m in materialized)

    def test_zero_resource_prm_masked(self):
        zero = PRMRequirements(name="zero", lut_ff_pairs=0, luts=0, ffs=0)
        result = batch_evaluate([prm("ok"), zero], "xc5vlx110t")
        assert result.feasible.tolist() == [True, False]
        with pytest.raises(PlacementNotFoundError):
            result.result(1)
        assert result.results()[1] is None

    def test_per_prm_controller_rates(self):
        prms = [prm("a"), prm("b")]
        result = batch_evaluate(
            prms, "xc5vlx110t", controller_bytes_per_s=[400e6, 100e6]
        )
        assert result.result(1) == evaluate_prm(
            prms[1], "xc5vlx110t", controller_bytes_per_s=100e6
        )
        assert float(result.reconfig_seconds[1]) == pytest.approx(
            result.result(1).reconfig.seconds
        )

    def test_rate_length_mismatch(self):
        with pytest.raises(InvalidInput):
            batch_evaluate([prm()], "xc5vlx110t", controller_bytes_per_s=[1e6, 2e6])

    def test_bad_rate_rejected(self):
        with pytest.raises(InvalidInput):
            batch_evaluate([prm()], "xc5vlx110t", controller_bytes_per_s=-1.0)

    def test_unknown_device_rejected(self):
        with pytest.raises(InvalidInput):
            batch_evaluate([prm()], "xc9nope")

    def test_to_dict_roundtrips_plain_types(self):
        import json

        result = batch_evaluate([prm("a"), prm("b", 2000)], "xc5vlx110t")
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["n_prms"] == 2
        assert doc["prm_names"] == ["a", "b"]
        assert doc["n_feasible"] == 2


class TestBatchMetrics:
    def test_counters_and_histogram_recorded(self):
        device = get_device("xc5vlx110t")
        with obs.capture(command="test") as session:
            batch.batch_select(device, [1000, 0], [0, 0], [0, 0])
        doc = session.to_dict()
        counters = doc["metrics"]["counters"]
        assert counters["batch.calls"] == 1
        assert counters["batch.prms_evaluated"] == 2
        assert counters["batch.cells_evaluated"] == 2 * device.rows
        assert counters["batch.infeasible_prms"] == 1
        assert doc["metrics"]["gauges"]["batch.vectorization_ratio"] == 2.0

    def test_disabled_obs_records_nothing(self):
        device = get_device("xc5vlx110t")
        sel = batch.batch_select(device, [1000], [0], [0])
        assert sel.n_feasible == 1  # no session: metrics are a no-op


@pytest.mark.parametrize("device_name", sorted(DEVICES))
def test_catalog_devices_all_supported(device_name):
    device = get_device(device_name)
    result = batch_evaluate([prm("probe", 500)], device)
    if bool(result.feasible[0]):
        assert result.result(0) == evaluate_prm(
            PRMRequirements(name="probe", lut_ff_pairs=500, luts=500, ffs=250),
            device,
        )
