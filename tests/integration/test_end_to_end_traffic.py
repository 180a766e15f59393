"""Integration: raw trip records -> STManager -> dataset -> training.

The paper's end-to-end claim (Section V-C, YellowTrip-NYC): the
preprocessing module's output trains grid models directly.
"""

import pytest

from repro.core.datasets.synth import generate_trip_records
from repro.core.models.grid import PeriodicalCNN
from repro.core.preprocessing.grid import STManager
from repro.core.training import Trainer, mae, periodical_batch, rmse
from repro.data import DataLoader, sequential_split
from repro.engine import Session
from repro.geometry.envelope import Envelope
from repro.nn import MSELoss
from repro.optim import Adam

ENVELOPE = Envelope(-74.05, -73.75, 40.6, 40.9)
GRID_X, GRID_Y = 6, 8
STEP = 1800.0
NUM_STEPS = 48 * 3  # three days


@pytest.fixture(scope="module")
def st_tensor():
    records = generate_trip_records(
        40_000, ENVELOPE, num_steps=NUM_STEPS, step_seconds=STEP, seed=0
    )
    session = Session(default_parallelism=4)
    df = session.create_dataframe(records)
    spatial = STManager.add_spatial_points(df, "lat", "lon", "point")
    st_df = STManager.get_st_grid_dataframe(
        spatial, "point", GRID_X, GRID_Y, "pickup_time", STEP,
        envelope=ENVELOPE, temporal_origin=0.0,
    )
    return STManager.get_st_grid_array(st_df, GRID_X, GRID_Y, num_steps=NUM_STEPS)


class TestPreparedTensor:
    def test_shape(self, st_tensor):
        assert st_tensor.shape == (NUM_STEPS, GRID_Y, GRID_X, 1)

    def test_total_count_conserved(self, st_tensor):
        # Most synthetic points land inside the envelope (hotspots near
        # the boundary shed a tail); the prepared tensor holds exactly
        # the in-envelope count.
        assert 25_000 < st_tensor.sum() <= 40_000

    def test_daily_cycle_present(self, st_tensor):
        """The generator plants a daily arrival-rate cycle; the
        prepared tensor must show it (peak hour ≫ trough hour)."""
        per_step = st_tensor.sum(axis=(1, 2, 3)).reshape(3, 48).mean(axis=0)
        assert per_step.max() > 3 * max(per_step.min(), 1.0)

    def test_trains_a_model(self, st_tensor):
        from repro.core.datasets.base import GridDataset

        # Three days of data: use a daily period and a 2-day "trend".
        dataset = GridDataset(
            st_tensor, steps_per_period=48, steps_per_trend=96
        )
        dataset.set_periodical_representation(3, 1, 1)
        train, val, test = sequential_split(dataset, [0.7, 0.15, 0.15])
        train_loader = DataLoader(train, batch_size=8, shuffle=True, rng=0)
        test_loader = DataLoader(test, batch_size=8)
        model = PeriodicalCNN(3, 1, 1, 1, rng=0)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=2e-3), MSELoss(), periodical_batch
        )
        result = trainer.fit(train_loader, epochs=4)
        assert result.train_losses[-1] < result.train_losses[0]
        metrics = trainer.evaluate(test_loader, {"mae": mae, "rmse": rmse})
        # Predicting counts on [0,1]-normalized data beats the trivial
        # always-0.5 guess by a wide margin.
        assert metrics["mae"] < 0.2
