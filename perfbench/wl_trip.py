"""``trip_grid_forecast``: the paper's headline path.

Synthetic NYC trips go through ``STManager`` into pickup and dropoff
grid tensors, then ``YellowTripNYC`` (periodical representation), one
DeepSTN+ training epoch and a test evaluation — the shape of
``examples/traffic_forecasting_end_to_end.py``.
"""

from __future__ import annotations

import time

import numpy as np

from harness import (
    RecordingLoss,
    TimedLoader,
    city_trips,
    digest,
    median,
    percentile,
    record_plan_stats,
    train_epoch,
)
from repro.core.datasets.grid import YellowTripNYC
from repro.core.models.grid import DeepSTNPlus
from repro.core.preprocessing.grid import STManager
from repro.core.training import Trainer, mae, periodical_batch, rmse
from repro.data import DataLoader, sequential_split
from repro.engine import Session
from repro.geometry.envelope import Envelope
from repro.nn import MSELoss
from repro.optim import Adam

NYC = Envelope(-74.05, -73.75, 40.6, 40.9)
GRID_X, GRID_Y = 12, 16
STEP_SECONDS = 1800.0
NUM_STEPS = 48 * 14
NUM_TRIPS = 200_000
BATCH = 16
# Stated bound on the test MAE in normalized units after one epoch
# (observed ~0.03); a diverged or broken model lands far above it.
MAE_BOUND = 0.1
CHANNELS = (("lat", "lon"), ("dropoff_lat", "dropoff_lon"))


class TripGridForecast:
    name = "trip_grid_forecast"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.records = city_trips(seed, NUM_TRIPS, NYC, NUM_STEPS, STEP_SECONDS)
        self.first_grid = None
        self.first_losses = None

    def digest(self) -> str:
        return digest(*(self.records[k] for k in sorted(self.records)))

    def enough(self, results) -> bool:
        # p95 of step latency needs at least 200 steps.
        return sum(len(r["step_s"]) for r in results) >= 200

    # ------------------------------------------------------------------
    def iteration(self, rec) -> dict:
        started = time.perf_counter()
        with rec.span("bench.grid_prep"):
            session = Session(default_parallelism=8)
            channels = []
            for lat_col, lon_col in CHANNELS:
                df = session.create_dataframe(self.records)
                spatial = STManager.add_spatial_points(
                    df, lat_column=lat_col, lon_column=lon_col,
                    new_column_alias="point",
                )
                st_df = STManager.get_st_grid_dataframe(
                    spatial, geometry="point", partitions_x=GRID_X,
                    partitions_y=GRID_Y, col_date="pickup_time",
                    step_duration_sec=STEP_SECONDS, envelope=NYC,
                    temporal_origin=0.0,
                )
                with rec.span("engine.grid_query"):
                    tensor = STManager.get_st_grid_array(
                        st_df, GRID_X, GRID_Y, num_steps=NUM_STEPS
                    )
                record_plan_stats(session, rec)
                channels.append(tensor[..., 0])
            grid = np.stack(channels, axis=-1)
        grid_done = time.perf_counter()

        with rec.span("data.build"):
            dataset = YellowTripNYC.from_st_tensor(grid)
            dataset.set_periodical_representation(
                len_closeness=3, len_period=2, len_trend=1
            )
            train, _, test = sequential_split(dataset, [0.8, 0.1, 0.1])
            train_loader = TimedLoader(
                DataLoader(train, batch_size=BATCH, shuffle=True, rng=self.seed)
            )
            test_loader = DataLoader(test, batch_size=BATCH)
        model = DeepSTNPlus(
            len_closeness=3, len_period=2, len_trend=1, nb_channels=2,
            grid_height=GRID_Y, grid_width=GRID_X, nb_filters=24,
            nb_blocks=2, rng=self.seed,
        )
        recording = RecordingLoss(MSELoss())
        trainer = Trainer(
            model, Adam(model.parameters(), lr=2e-3), recording,
            periodical_batch,
        )
        train_started = time.perf_counter()
        losses = train_epoch(trainer, train_loader, recording, rec)
        train_done = time.perf_counter()
        with rec.span("nn.eval"):
            scores = trainer.evaluate(test_loader, {"mae": mae, "rmse": rmse})
        done = time.perf_counter()
        return {
            "pipeline_s": done - started,
            "grid_prep_s": grid_done - started,
            "train_s": train_done - train_started,
            "train_samples": len(train),
            "step_s": train_loader.step_seconds(),
            "losses": losses,
            "scores": scores,
            "grid": grid,
        }

    def check_iteration(self, result, checks) -> None:
        grid, losses = result.pop("grid"), result["losses"]
        scores = result["scores"]
        if self.first_grid is None:
            self.first_grid, self.first_losses = grid, losses
        else:
            checks.check(
                "trip.grid_repeatable", np.array_equal(grid, self.first_grid)
            )
            # Traced iterations run the instrumented loop, untraced ones
            # Trainer.train_epoch: both must give these losses bit for bit.
            checks.check(
                "trip.step_losses_bitwise", losses == self.first_losses,
                f"{len(losses)} steps",
            )
        checks.check(
            "trip.losses_finite",
            len(losses) > 0 and all(np.isfinite(losses)),
        )
        checks.check(
            "trip.test_mae_bound",
            np.isfinite(scores["loss"]) and 0 <= scores["mae"] <= MAE_BOUND,
            f"mae={scores['mae']:.5f} bound={MAE_BOUND}",
        )

    def final_checks(self, checks) -> None:
        """Each grid channel against an independent numpy histogram of
        the same trips over (time step, cell row, cell column)."""
        edges = (
            np.arange(NUM_STEPS + 1) * STEP_SECONDS,
            np.linspace(NYC.min_y, NYC.max_y, GRID_Y + 1),
            np.linspace(NYC.min_x, NYC.max_x, GRID_X + 1),
        )
        for channel, (lat_col, lon_col) in enumerate(CHANNELS):
            sample = np.stack(
                [
                    self.records["pickup_time"],
                    self.records[lat_col],
                    self.records[lon_col],
                ],
                axis=1,
            )
            expected, _ = np.histogramdd(sample, bins=edges)
            checks.check(
                f"trip.grid_channel{channel}_equals_histogram",
                np.array_equal(
                    self.first_grid[..., channel], expected.astype(np.float32)
                ),
            )

    def summarize(self, results) -> tuple[dict, dict]:
        steps = [s for r in results for s in r["step_s"]]
        grid_prep = median([r["grid_prep_s"] for r in results])
        train_s = median([r["train_s"] for r in results])
        samples = results[0]["train_samples"]
        metrics = {
            "pipeline_s": median([r["pipeline_s"] for r in results]),
            "prep_items_per_s": NUM_TRIPS / grid_prep,
            "consume_items_per_s": samples / train_s,
            "latency_p50_ms": percentile(steps, 50) * 1e3,
        }
        named = {
            "grid_prep_trips_per_s": (metrics["prep_items_per_s"], "1/s"),
            "train_samples_per_s": (metrics["consume_items_per_s"], "1/s"),
            "train_step_p50_ms": (metrics["latency_p50_ms"], "ms"),
            "train_step_p95_ms": (percentile(steps, 95) * 1e3, "ms"),
            "train_step_samples": (len(steps), "count"),
            "test_mae_normalized": (results[-1]["scores"]["mae"], "1"),
        }
        return metrics, named
