"""``raster_table8``: the paper's Table VIII, offline pre-transformation
against on-the-fly transforms, on one SatCNN.

Set-up writes a compressed ``.rtif`` tile store.  Each iteration runs:

- leg A (offline): ``load_geotiff_image`` -> k x
  ``RasterProcessing.append_normalized_difference_index`` ->
  ``write_geotiff_image``, a reload of the written store into arrays,
  one SatCNN epoch over them and an evaluation on held-out tiles;
- leg B (on the fly): one SatCNN epoch whose dataset decodes each raw
  tile with ``read_rtif`` and applies a ``Compose`` of the same NDI
  transforms inside the loader.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from harness import (
    RecordingLoss,
    TimedLoader,
    digest,
    median,
    percentile,
    record_plan_stats,
    train_epoch,
)
from repro.core.datasets.base import RasterDataset
from repro.core.datasets.synth import generate_classification_rasters
from repro.core.models.raster import SatCNN
from repro.core.preprocessing import load_geotiff_image, write_geotiff_image
from repro.core.preprocessing.raster import RasterProcessing
from repro.core.training import Trainer, accuracy, classification_batch
from repro.core.transforms import AppendNormalizedDifferenceIndex, Compose
from repro.data import DataLoader, Dataset
from repro.engine import Session
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.spatial import raster_io
from repro.spatial.raster import RasterTile

NUM_TRAIN, NUM_TEST = 256, 32
NUM_CLASSES, BASE_BANDS, SIZE = 10, 13, 32
NDI_PAIRS = ((0, 1), (2, 3), (4, 5))
BANDS = BASE_BANDS + len(NDI_PAIRS)
BATCH = 16
TILES_PER_PARTITION = 32


class OnTheFlyDataset(Dataset):
    """Decodes one raw tile per access and transforms it — the
    out-of-memory access pattern Table VIII's online setting measures.
    Records each sample's decode + transform latency."""

    def __init__(self, paths, labels, transform, rec):
        self.paths, self.labels, self.transform = paths, labels, transform
        self.rec = rec
        self.sample_s: list[float] = []

    def __len__(self):
        return len(self.paths)

    def __getitem__(self, index):
        started = time.perf_counter()
        # Looked up on the module so a traced iteration's wrapper
        # (spatial.rtif_decode span, bytes read) applies here too.
        image = raster_io.read_rtif(self.paths[index]).data
        with self.rec.span("transforms.apply"):
            image = self.transform(image)
        self.sample_s.append(time.perf_counter() - started)
        return image, self.labels[index]


class RasterTable8:
    name = "raster_table8"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        total = NUM_TRAIN + NUM_TEST
        self.images, self.labels = generate_classification_rasters(
            total, NUM_CLASSES, BASE_BANDS, SIZE, SIZE, seed=seed
        )
        self.raw_dir = os.path.join(workdir, "raw")
        os.makedirs(self.raw_dir)
        self.raw_paths = [
            raster_io.write_rtif(
                RasterTile(self.images[i], name=f"img_{i:05d}"),
                os.path.join(self.raw_dir, f"img_{i:05d}"),
            )
            for i in range(total)
        ]
        self.transform = Compose(
            [AppendNormalizedDifferenceIndex(a, b) for a, b in NDI_PAIRS]
        )
        self.first_losses = None
        self.expected_tiles = None

    def digest(self) -> str:
        return digest(self.images, self.labels)

    def enough(self, results) -> bool:
        return len(results) >= 2

    def _trainer(self):
        model = SatCNN(BANDS, SIZE, SIZE, NUM_CLASSES, rng=self.seed)
        recording = RecordingLoss(CrossEntropyLoss())
        trainer = Trainer(
            model, Adam(model.parameters(), lr=1e-3), recording,
            classification_batch,
        )
        return trainer, recording

    def _loader(self, dataset):
        return DataLoader(dataset, batch_size=BATCH, shuffle=True, rng=self.seed)

    # ------------------------------------------------------------------
    def iteration(self, rec) -> dict:
        pre_dir = os.path.join(self.workdir, "pre")
        shutil.rmtree(pre_dir, ignore_errors=True)
        labels = self.labels
        with rec.wrap(raster_io, "read_rtif", "spatial.rtif_decode",
                      "spatial.bytes_read", lambda args, result: args[0]), \
                rec.wrap(raster_io, "write_rtif", "spatial.rtif_encode",
                         "spatial.bytes_written", lambda args, result: result):
            started = time.perf_counter()
            session = Session(default_parallelism=4)
            with rec.span("preprocessing.raster_pretransform"):
                df = load_geotiff_image(
                    session, self.raw_dir, tiles_per_partition=TILES_PER_PARTITION
                )
                for a, b in NDI_PAIRS:
                    df = RasterProcessing.append_normalized_difference_index(
                        df, a, b
                    )
                write_geotiff_image(df, pre_dir)
            record_plan_stats(session, rec)
            pretransform_done = time.perf_counter()
            with rec.span("spatial.raster_load"):
                columns = load_geotiff_image(
                    session, pre_dir, tiles_per_partition=TILES_PER_PARTITION
                ).to_columns()
                order = np.argsort(columns["name"])
                pre = np.stack([columns["tile"][i].data for i in order])
            record_plan_stats(session, rec)
            reload_done = time.perf_counter()

            trainer_a, recording_a = self._trainer()
            with rec.span("data.build"):
                train_a = RasterDataset(pre[:NUM_TRAIN], labels[:NUM_TRAIN])
                test_a = RasterDataset(pre[NUM_TRAIN:], labels[NUM_TRAIN:])
            losses_a = train_epoch(trainer_a, self._loader(train_a), recording_a, rec)
            train_a_done = time.perf_counter()
            with rec.span("nn.eval"):
                scores = trainer_a.evaluate(
                    DataLoader(test_a, batch_size=BATCH), {"accuracy": accuracy}
                )
            eval_done = time.perf_counter()

            trainer_b, recording_b = self._trainer()
            train_b = OnTheFlyDataset(
                self.raw_paths[:NUM_TRAIN], labels[:NUM_TRAIN], self.transform, rec
            )
            loader_b = TimedLoader(self._loader(train_b))
            losses_b = train_epoch(trainer_b, loader_b, recording_b, rec)
            done = time.perf_counter()
        return {
            "pipeline_s": done - started,
            "pretransform_s": pretransform_done - started,
            "reload_s": reload_done - pretransform_done,
            "train_a_s": train_a_done - reload_done,
            "train_b_s": done - eval_done,
            "sample_s": train_b.sample_s,
            "step_s": loader_b.step_seconds(),
            "losses_a": losses_a,
            "losses_b": losses_b,
            "scores": scores,
            "pre": pre,
            "params_equal": all(
                np.array_equal(p.data, q.data)
                for p, q in zip(
                    trainer_a.model.parameters(), trainer_b.model.parameters()
                )
            ),
        }

    def check_iteration(self, result, checks) -> None:
        pre = result.pop("pre")
        if self.expected_tiles is None:
            self.expected_tiles = [
                self.transform(raster_io.read_rtif(path).data)
                for path in self.raw_paths
            ]
        checks.check(
            "raster.pretransformed_tile_equals_onthefly",
            len(pre) == len(self.expected_tiles)
            and all(
                got.dtype == want.dtype and np.array_equal(got, want)
                for got, want in zip(pre, self.expected_tiles)
            ),
            f"{len(pre)} tiles",
        )
        losses_a, losses_b = result["losses_a"], result["losses_b"]
        checks.check(
            "raster.leg_losses_bitwise", losses_a == losses_b,
            f"{len(losses_a)} steps",
        )
        checks.check("raster.leg_params_bitwise", result.pop("params_equal"))
        checks.check(
            "raster.losses_finite",
            len(losses_a) > 0 and all(np.isfinite(losses_a)),
        )
        acc = result["scores"]["accuracy"]
        checks.check(
            "raster.eval_finite",
            np.isfinite(result["scores"]["loss"]) and 0.0 <= acc <= 1.0,
            f"accuracy={acc:.3f}",
        )
        if self.first_losses is None:
            self.first_losses = losses_a
        else:
            checks.check(
                "raster.step_losses_repeatable", losses_a == self.first_losses
            )

    def final_checks(self, checks) -> None:
        pass

    def summarize(self, results) -> tuple[dict, dict]:
        samples = [s for r in results for s in r["sample_s"]]
        steps = [s for r in results for s in r["step_s"]]
        pretransform = median([r["pretransform_s"] for r in results])
        train_a = median([r["train_a_s"] for r in results])
        train_b = median([r["train_b_s"] for r in results])
        tiles = NUM_TRAIN + NUM_TEST
        metrics = {
            "pipeline_s": median([r["pipeline_s"] for r in results]),
            "prep_items_per_s": tiles / pretransform,
            "consume_items_per_s": NUM_TRAIN / train_b,
            "latency_p50_ms": percentile(steps, 50) * 1e3,
        }
        named = {
            "raster_prep_tiles_per_s": (metrics["prep_items_per_s"], "1/s"),
            "onthefly_train_samples_per_s": (metrics["consume_items_per_s"], "1/s"),
            "train_samples_per_s": (NUM_TRAIN / train_a, "1/s"),
            "reload_s": (median([r["reload_s"] for r in results]), "s"),
            "onthefly_step_p50_ms": (metrics["latency_p50_ms"], "ms"),
            "onthefly_step_count": (len(steps), "count"),
            "onthefly_sample_p50_ms": (percentile(samples, 50) * 1e3, "ms"),
            "onthefly_sample_p95_ms": (percentile(samples, 95) * 1e3, "ms"),
            "onthefly_sample_count": (len(samples), "count"),
            "test_accuracy": (results[-1]["scores"]["accuracy"], "1"),
        }
        return metrics, named
