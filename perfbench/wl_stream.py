"""``stream_grid_ingest``: micro-batches of time-ordered trips through
``Session.stream`` -> ``aggregate(["time_step", "cell_id"], count,
mean)`` -> ``STManager.update_st_grid_array``.

Each iteration starts from an empty stream and runs two phases:

- backfill (closed loop): a job catches up on history, appending
  ``BACKFILL_BATCH``-row batches back to back until the aggregation
  state holds at least ``LIVE_START_GROUPS`` groups;
- live (open loop): ``LIVE_BATCHES`` batches of ``LIVE_BATCH`` rows are
  due every ``LIVE_INTERVAL_S``; each update's latency runs from its
  due time to the end of its grid update, so a stall also delays the
  batches queued behind it.

Update cost depends on the state size, so the live phase always starts
at the same, stated state size.
"""

from __future__ import annotations

import time

import numpy as np

from harness import city_trips, digest, median, percentile
from repro.core.preprocessing.grid import STManager
from repro.engine import Session, agg
from repro.geometry.envelope import Envelope
from repro.geometry.grid import UniformGrid

NYC = Envelope(-74.05, -73.75, 40.6, 40.9)
GRID_X, GRID_Y = 12, 16
STEP_SECONDS = 1800.0
NUM_STEPS = 48 * 14
NUM_TRIPS = 400_000
BACKFILL_BATCH = 2_000
LIVE_START_GROUPS = 30_000
LIVE_BATCH = 500
LIVE_BATCHES = 50
LIVE_INTERVAL_S = 0.06
SPIN_S = 0.002
VALUE_COLUMNS = ["count", "mean_v"]
SCHEMA = [("time_step", np.int64), ("cell_id", np.int64), ("v", np.float64)]


class StreamGridIngest:
    name = "stream_grid_ingest"

    def __init__(self, seed: int, workdir: str):
        records = city_trips(seed, NUM_TRIPS, NYC, NUM_STEPS, STEP_SECONDS)
        order = np.argsort(records["pickup_time"], kind="stable")
        cells = UniformGrid(NYC, GRID_X, GRID_Y).cell_ids_of_arrays(
            records["lon"][order], records["lat"][order]
        )
        keep = cells >= 0
        self.columns = {
            "time_step": np.floor(
                records["pickup_time"][order] / STEP_SECONDS
            ).astype(np.int64)[keep],
            "cell_id": cells[keep].astype(np.int64),
            "v": records["passenger_count"][order].astype(np.float64)[keep],
        }
        self.num_rows = len(self.columns["cell_id"])
        self.first_grid = None
        self.last_live = None

    def digest(self) -> str:
        return digest(*(self.columns[k] for k in sorted(self.columns)))

    def enough(self, results) -> bool:
        # p95 of update latency needs at least 200 updates.
        return sum(len(r["latency_s"]) for r in results) >= 200

    def _batch(self, start: int, rows: int) -> dict:
        return {k: v[start : start + rows] for k, v in self.columns.items()}

    # ------------------------------------------------------------------
    def iteration(self, rec) -> dict:
        session = Session()
        stream = session.stream(SCHEMA)
        live = stream.aggregate(
            ["time_step", "cell_id"], [agg.count(name="count"), agg.mean("v")]
        )
        grid = np.zeros((1, GRID_Y, GRID_X, len(VALUE_COLUMNS)), np.float32)

        def update(batch):
            nonlocal grid
            with rec.span("streaming.append"):
                stream.append(batch)
            with rec.span("streaming.delta"):
                delta = live.delta()
            with rec.span("preprocessing.grid_update"):
                grid = STManager.update_st_grid_array(
                    grid, delta, GRID_X, GRID_Y, value_columns=VALUE_COLUMNS
                )

        row = 0
        started = time.perf_counter()
        with rec.span("bench.backfill"):
            while live.num_groups < LIVE_START_GROUPS and row < self.num_rows:
                update(self._batch(row, BACKFILL_BATCH))
                row += BACKFILL_BATCH
        backfill_s = time.perf_counter() - started
        backfill_rows = row
        live_start_groups = live.num_groups

        latency, service, lag = [], [], []
        with rec.span("bench.live"):
            base = time.perf_counter()
            previous_done = base
            for k in range(LIVE_BATCHES):
                due = base + k * LIVE_INTERVAL_S
                with rec.span("bench.idle"):
                    # Sleep to just short of the due time, then spin:
                    # a plain sleep can overshoot by milliseconds here.
                    wait = due - time.perf_counter() - SPIN_S
                    if wait > 0:
                        time.sleep(wait)
                    while time.perf_counter() < due:
                        pass
                sent = time.perf_counter()
                update(self._batch(row, LIVE_BATCH))
                row += LIVE_BATCH
                done = time.perf_counter()
                latency.append(done - due)
                service.append(done - sent)
                # How late the generator itself ran: the send's delay
                # beyond both its due time and the previous completion.
                lag.append(sent - max(due, previous_done))
                previous_done = done
        rec.set("streaming.state_groups", live.num_groups)
        rec.set("streaming.state_bytes", live.state_nbytes)
        rec.set("streaming.live_start_groups", live_start_groups)
        rec.set("streaming.generator_lag_ms", percentile(lag, 95) * 1e3)
        return {
            "pipeline_s": backfill_s,
            "backfill_rows": backfill_rows,
            "rows_used": row,
            "live_start_groups": live_start_groups,
            "latency_s": latency,
            "service_s": service,
            "lag_s": lag,
            "grid": grid,
            "live": live,
        }

    def check_iteration(self, result, checks) -> None:
        grid, live = result.pop("grid"), result.pop("live")
        checks.check(
            "stream.inputs_cover_run", result["rows_used"] <= self.num_rows,
            f"{result['rows_used']} of {self.num_rows} rows",
        )
        start = result["live_start_groups"]
        checks.check(
            "stream.live_start_state",
            LIVE_START_GROUPS <= start < LIVE_START_GROUPS + BACKFILL_BATCH,
            f"{start} groups",
        )
        if self.first_grid is None:
            self.first_grid = grid.copy()
        else:
            checks.check(
                "stream.grid_repeatable",
                grid.shape == self.first_grid.shape
                and np.array_equal(grid, self.first_grid),
            )
        self.last_live = (live, grid)

    def final_checks(self, checks) -> None:
        """The incrementally maintained grid of the last iteration
        against a full ``recompute_dataframe()`` rebuild, bit for bit."""
        live, grid = self.last_live
        rebuilt = STManager.get_st_grid_array(
            live.recompute_dataframe(), GRID_X, GRID_Y,
            num_steps=grid.shape[0], value_columns=VALUE_COLUMNS,
        )
        checks.check(
            "stream.grid_equals_recompute",
            rebuilt.shape == grid.shape and np.array_equal(rebuilt, grid),
            f"{live.num_groups} groups",
        )

    def summarize(self, results) -> tuple[dict, dict]:
        latency = [s for r in results for s in r["latency_s"]]
        service = [s for r in results for s in r["service_s"]]
        lag = [s for r in results for s in r["lag_s"]]
        backfill = median([r["pipeline_s"] for r in results])
        rows = results[0]["backfill_rows"]
        metrics = {
            "pipeline_s": backfill,
            "prep_items_per_s": rows / backfill,
            "consume_items_per_s": LIVE_BATCH / median(service),
            "latency_p50_ms": percentile(latency, 50) * 1e3,
        }
        named = {
            "stream_backfill_rows_per_s": (metrics["prep_items_per_s"], "1/s"),
            "stream_backfill_rows": (rows, "count"),
            "stream_update_p50_ms": (metrics["latency_p50_ms"], "ms"),
            "stream_update_p95_ms": (percentile(latency, 95) * 1e3, "ms"),
            "stream_update_samples": (len(latency), "count"),
            "stream_live_rows_per_busy_s": (metrics["consume_items_per_s"], "1/s"),
            "stream_live_start_groups": (results[0]["live_start_groups"], "count"),
            "stream_generator_lag_p95_ms": (percentile(lag, 95) * 1e3, "ms"),
        }
        return metrics, named
