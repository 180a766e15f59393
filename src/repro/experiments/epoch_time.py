"""Table VII: training time of every model for a single epoch.

Grid models train on the Temperature dataset, classifiers on EuroSAT,
segmentation models on 38-Cloud — matching the paper's assignments.
"""

from __future__ import annotations

import time

from repro.core.datasets.grid import Temperature
from repro.core.training import Trainer
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid_forecasting import (
    build_grid_model,
    make_grid_loaders,
)
from repro.experiments.raster_tasks import (
    run_classification,
    run_segmentation,
)
from repro.nn import MSELoss
from repro.optim import Adam

GRID_ROWS = ("Periodical CNN", "ConvLSTM", "ST-ResNet", "DeepSTN+")
CLS_ROWS = ("DeepSAT V2", "SatCNN")
SEG_ROWS = ("FCN", "UNet", "UNet++")


def grid_epoch_seconds(
    model_name: str, root: str, config: ExperimentConfig, seed: int = 0
) -> float:
    """One training epoch of a grid model on Temperature."""
    dataset = Temperature(
        root, num_steps=config.grid_steps, grid_shape=config.weather_grid
    )
    train_loader, _, _ = make_grid_loaders(dataset, model_name, config, seed)
    model, adapter, lr, _ = build_grid_model(
        model_name,
        dataset.num_channels,
        dataset.grid_height,
        dataset.grid_width,
        config,
        rng=seed,
    )
    trainer = Trainer(model, Adam(model.parameters(), lr=lr), MSELoss(), adapter)
    started = time.perf_counter()
    trainer.train_epoch(train_loader)
    return time.perf_counter() - started


def _profiled_breakdown(profiler, top: int = 12) -> dict:
    """Per-model summary of a finished profiler: the ``top`` module
    paths by self time plus run totals."""
    averages = profiler.key_averages()
    rows = sorted(
        averages.as_dicts(), key=lambda r: (-r["self_s"], r["name"])
    )
    return {
        "total_flops": profiler.total_flops(),
        "total_param_bytes": averages.total_param_bytes,
        "spans": len(profiler.spans),
        "dropped_events": profiler.dropped_events,
        "top_modules": rows[:top],
    }


def profile_table7(
    root: str, config: ExperimentConfig, seed: int = 0, top: int = 12
) -> dict:
    """One short profiled epoch per Table VII model.

    Returns ``{model_name: breakdown}`` where each breakdown carries
    analytic FLOPs, parameter bytes, and the top module paths by self
    time — the attribution layer behind the Table VII timings.  A
    wait/warmup/active schedule keeps only steady-state steps, so the
    breakdown is free of first-batch warmup skew.
    """
    from repro.obs.profiler import Profiler, schedule

    def fresh_profiler() -> Profiler:
        return Profiler(schedule=schedule(wait=1, warmup=1, active=3, repeat=1))

    breakdowns: dict[str, dict] = {}
    for model_name in GRID_ROWS:
        dataset = Temperature(
            root, num_steps=config.grid_steps, grid_shape=config.weather_grid
        )
        train_loader, _, _ = make_grid_loaders(dataset, model_name, config, seed)
        model, adapter, lr, _ = build_grid_model(
            model_name,
            dataset.num_channels,
            dataset.grid_height,
            dataset.grid_width,
            config,
            rng=seed,
        )
        trainer = Trainer(
            model, Adam(model.parameters(), lr=lr), MSELoss(), adapter
        )
        profiler = fresh_profiler()
        trainer.fit(train_loader, epochs=1, profiler=profiler)
        breakdowns[model_name] = _profiled_breakdown(profiler, top=top)
    for model_name in CLS_ROWS:
        profiler = fresh_profiler()
        run_classification(
            "EuroSAT", model_name, root, config, seed=seed, epochs=1,
            profiler=profiler,
        )
        breakdowns[model_name] = _profiled_breakdown(profiler, top=top)
    for model_name in SEG_ROWS:
        profiler = fresh_profiler()
        run_segmentation(
            model_name, root, config, seed=seed, epochs=1, profiler=profiler
        )
        breakdowns[model_name] = _profiled_breakdown(profiler, top=top)
    return breakdowns


def run_table7(root: str, config: ExperimentConfig) -> list[dict]:
    """Every Table VII row: (dataset, application, model, seconds)."""
    rows = []
    for model_name in GRID_ROWS:
        rows.append(
            {
                "dataset": "Temperature",
                "application": "Prediction",
                "model": model_name,
                "epoch_seconds": grid_epoch_seconds(model_name, root, config),
            }
        )
    for model_name in CLS_ROWS:
        cell = run_classification(
            "EuroSAT", model_name, root, config, seed=0, epochs=1
        )
        rows.append(
            {
                "dataset": "EuroSAT",
                "application": "Classification",
                "model": model_name,
                "epoch_seconds": cell["mean_epoch_seconds"],
            }
        )
    for model_name in SEG_ROWS:
        cell = run_segmentation(model_name, root, config, seed=0, epochs=1)
        rows.append(
            {
                "dataset": "38-Cloud",
                "application": "Segmentation",
                "model": model_name,
                "epoch_seconds": cell["mean_epoch_seconds"],
            }
        )
    return rows


def format_table7(rows: list[dict]) -> str:
    lines = [
        "Table VII: Training Time of Various Models for a Single Epoch",
        "==============================================================",
        f"{'Dataset':12s} {'Application':15s} {'Model':15s} "
        f"{'Seconds':>9s}",
    ]
    for row in rows:
        lines.append(
            f"{row['dataset']:12s} {row['application']:15s} "
            f"{row['model']:15s} {row['epoch_seconds']:>9.3f}"
        )
    return "\n".join(lines)
