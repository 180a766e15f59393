"""Ablation: basic vs sequential vs periodical representation.

Design claim (paper Section II-B): on periodicity-dominated data,
richer temporal representations yield lower prediction error.  To
isolate the *representation* (not model capacity), one identical
shallow CNN consumes, as input channels:

- **basic**      — the single latest frame;
- **sequential** — the last ``history`` frames;
- **periodical** — closeness + period + trend frames (same total
  frame count as sequential).
"""

from __future__ import annotations

import numpy as np

from repro.core.datasets.grid import BikeNYCDeepSTN
from repro.core.training import Trainer, rmse
from repro.data import DataLoader, sequential_split
from repro.nn import Conv2d, MSELoss, ReLU, Sequential
from repro.optim import Adam
from repro.tensor import Tensor


def _make_cnn(in_channels: int):
    return Sequential(
        Conv2d(in_channels, 16, 3, padding=1, rng=1),
        ReLU(),
        Conv2d(16, 2, 3, padding=1, rng=1),
    )


def _basic_adapter(batch):
    x, y = batch
    return (Tensor(x),), Tensor(y)


def _sequential_adapter(batch):
    x, y = batch  # (N, T, C, H, W) -> stack time on channels
    x = np.asarray(x)
    n, t, c, h, w = x.shape
    y = np.asarray(y)
    if y.ndim == 5:
        y = y[:, 0]
    return (Tensor(x.reshape(n, t * c, h, w)),), Tensor(y)


def _periodical_adapter(batch):
    x = np.concatenate(
        [batch["x_closeness"], batch["x_period"], batch["x_trend"]], axis=1
    )
    return (Tensor(x),), Tensor(batch["y_data"])


def _run(dataset, adapter, in_channels, epochs=12, seed=0):
    train, _, test = sequential_split(dataset, [0.8, 0.1, 0.1])
    train_loader = DataLoader(train, batch_size=16, shuffle=True, rng=seed)
    test_loader = DataLoader(test, batch_size=16)
    model = _make_cnn(in_channels)
    trainer = Trainer(
        model, Adam(model.parameters(), lr=2e-3), MSELoss(), adapter
    )
    trainer.fit(train_loader, epochs=epochs)
    return trainer.evaluate(test_loader, {"rmse": rmse})["rmse"] * dataset.scale


def test_ablation_representation(benchmark, report, data_root):
    def run():
        results = {}
        ds = BikeNYCDeepSTN(data_root, num_steps=1000)
        ds.set_basic_representation(lead_time=1)
        results["basic"] = _run(ds, _basic_adapter, 2)

        ds = BikeNYCDeepSTN(data_root, num_steps=1000)
        ds.set_sequential_representation(6, 1)
        results["sequential"] = _run(ds, _sequential_adapter, 12)

        ds = BikeNYCDeepSTN(data_root, num_steps=1000)
        ds.set_periodical_representation(3, 2, 1)
        results["periodical"] = _run(ds, _periodical_adapter, 12)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Ablation: temporal representation (same CNN, test RMSE, raw units)\n"
        "===================================================================\n"
        + "\n".join(f"{k:12s} {v:8.4f}" for k, v in results.items())
    )
    assert results["periodical"] < results["sequential"]
    assert results["sequential"] < results["basic"]
