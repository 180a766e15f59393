"""Helpers shared by the workloads: output checks, percentiles, input
digests, and the two training loops (the program's ``Trainer`` for
untraced iterations, a span-instrumented copy of its step for traced
ones)."""

from __future__ import annotations

import hashlib
import math
import re
import time

import numpy as np


class Checks:
    """Named pass/fail output checks; every failure counts toward
    ``failed_frac``."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        self.results.append((name, ok, detail))
        return ok

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (an observed value), q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# Seed of the synthetic city (hotspot layout) the trip workloads draw
# from.  The layout sets how many (time step, cell) groups the trips
# fill, which sets engine and streaming cost; keeping it fixed lets
# ``--seed`` vary the trips without varying the amount of work.
CITY_SEED = 0
CITY_POOL_FACTOR = 3


def city_trips(seed: int, num_trips: int, envelope, num_steps: int,
               step_seconds: float) -> dict:
    """``num_trips`` trip records drawn without replacement, by
    ``seed``, from a pool the in-repo generator makes for the fixed
    city; records keep the generator's order."""
    from repro.core.datasets.synth import generate_trip_records

    pool_size = CITY_POOL_FACTOR * num_trips
    pool = generate_trip_records(
        pool_size, envelope, num_steps=num_steps, step_seconds=step_seconds,
        seed=CITY_SEED,
    )
    pick = np.sort(
        np.random.default_rng(seed).choice(pool_size, num_trips, replace=False)
    )
    return {k: v[pick] for k, v in pool.items()}


def digest(*arrays) -> str:
    """sha256 over the raw bytes, dtypes and shapes of the inputs."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class RecordingLoss:
    """Wraps a loss module and records every step's loss value, so the
    untraced ``Trainer`` loop exposes per-step losses."""

    def __init__(self, loss_fn):
        self.loss_fn = loss_fn
        self.values: list[float] = []

    def __call__(self, output, target):
        loss = self.loss_fn(output, target)
        self.values.append(loss.item())
        return loss


class TimedLoader:
    """Iterates a loader and stamps the time each batch is requested;
    consecutive stamps bound one training step (fetch + compute)."""

    def __init__(self, loader):
        self.loader = loader
        self.marks: list[float] = []

    def __iter__(self):
        it = iter(self.loader)
        while True:
            self.marks.append(time.perf_counter())
            try:
                batch = next(it)
            except StopIteration:
                return
            yield batch

    def step_seconds(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


def train_epoch(trainer, loader, recording: RecordingLoss, rec) -> list[float]:
    """One epoch; returns its per-step losses.

    Untraced (``rec.enabled`` false) this is ``Trainer.train_epoch``
    itself.  Traced, it steps the same model, loss and optimizer
    through the same public calls in the same order as
    ``Trainer.train_epoch`` (incremental mode, graph freed on
    backward), with a span around each layer call."""
    start = len(recording.values)
    if not rec.enabled:
        trainer.train_epoch(loader)
        return recording.values[start:]
    model, optimizer = trainer.model, trainer.optimizer
    model.train()
    it = iter(loader)
    with rec.span("bench.epoch"):
        while True:
            with rec.span("data.fetch"):
                batch = next(it, None)
            if batch is None:
                break
            inputs, target = trainer.batch_adapter(batch)
            with rec.span("nn.forward"):
                output = model(*inputs)
                loss = recording(output, target)
            with rec.span("optim.step"):
                optimizer.zero_grad()
            with rec.span("tensor.backward"):
                loss.backward(free_graph=trainer.free_graph)
            with rec.span("optim.step"):
                optimizer.step()
            rec.add("train.steps", 1)
            rec.add("data.batches", 1)
            rec.add("data.samples", len(target.data))
    return recording.values[start:]


_OP_RE = re.compile(r"^[A-Za-z_]+")
ENGINE_OPS = ("Source", "CompiledStage", "GroupByAgg", "MapPartitions")


def record_plan_stats(session, rec) -> None:
    """Fold the engine's metered stats of the session's last query into
    the recorder: rows read by sources, groups produced by group-bys,
    and per-operator self seconds (an operator's pull time minus its
    children's)."""
    if not rec.enabled or session.last_plan_stats is None:
        return
    tree = session.last_plan_stats.to_dict(session.last_plan)

    def walk(node):
        children = node.get("children", [])
        op = _OP_RE.match(node["operator"])
        op = op.group(0) if op else "Unknown"
        elapsed = node.get("elapsed_s", 0.0)
        self_s = elapsed - sum(c.get("elapsed_s", 0.0) for c in children)
        key = op if op in ENGINE_OPS else "other"
        rec.add(f"engine.op.{key}.seconds", self_s)
        if op == "Source":
            rec.add("engine.rows_in", node.get("rows_out", 0))
        if op == "GroupByAgg":
            rec.add("engine.groups_out", node.get("rows_out", 0))
        for child in children:
            walk(child)

    walk(tree)
