"""Ablation: DFtoTorch streaming conversion vs collect-then-tensorize.

Design claim (paper Section III-C): converting a preprocessed
DataFrame by first collecting it onto the master exceeds the streaming
converter's working set; the converter's batches are identical either
way.
"""

from __future__ import annotations

from repro.core.converter import DFToTorchConverter, SpatiotemporalSpec
from repro.core.preprocessing.grid import STManager
from repro.engine import Session
from repro.experiments.fig8 import (
    GRID_X,
    GRID_Y,
    NYC_ENVELOPE,
    STEP_SECONDS,
    make_records,
)
from repro.utils.memory import MemoryMeter, approx_nbytes


def _prepared_df(session):
    records = make_records(100_000)
    df = session.create_dataframe(records)
    spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
    return STManager.get_st_grid_dataframe(
        spatial,
        geometry="point",
        partitions_x=GRID_X,
        partitions_y=GRID_Y,
        col_date="pickup_time",
        step_duration_sec=STEP_SECONDS,
        envelope=NYC_ENVELOPE,
        temporal_origin=0.0,
    )


def test_ablation_converter_streaming(benchmark, report):
    spec = SpatiotemporalSpec(
        partitions_x=GRID_X, partitions_y=GRID_Y, lead_time=1
    )

    def run():
        # Streaming: the converter pulls partitions through DFFormatter
        # and emits batches; peak = partition + pending batch.
        meter = MemoryMeter()
        session = Session(default_parallelism=8, meter=meter)
        st_df = _prepared_df(session)
        converter = DFToTorchConverter(spec)
        streamed_batches = [
            (x.numpy().copy(), y.numpy().copy())
            for x, y in converter.convert(st_df, batch_size=32)
        ]
        streaming_peak = meter.peak

        # Collect-then-tensorize: materialize every row on the driver
        # first (the naive path the paper argues against).
        meter2 = MemoryMeter()
        session2 = Session(default_parallelism=8, meter=meter2)
        st_df2 = _prepared_df(session2)
        rows = st_df2.collect()
        meter2.allocate(approx_nbytes(rows))
        collected_peak = meter2.peak
        return streamed_batches, streaming_peak, collected_peak

    batches, streaming_peak, collected_peak = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report(
        "Ablation: DFtoTorch streaming vs collect-then-tensorize\n"
        "========================================================\n"
        f"streaming peak:  {streaming_peak / 1e6:8.2f} MB "
        f"({len(batches)} batches)\n"
        f"collected peak:  {collected_peak / 1e6:8.2f} MB\n"
        f"ratio: {collected_peak / max(streaming_peak, 1):.1f}x"
    )
    assert batches, "converter produced no batches"
    x, y = batches[0]
    assert x.shape[1:] == (1, GRID_Y, GRID_X)
    assert x.shape == y.shape
    assert collected_peak > 1.5 * streaming_peak
