"""The raster tile container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.envelope import Envelope


@dataclass
class RasterTile:
    """A multi-band raster image with geographic metadata.

    ``data`` is a (bands, height, width) float32 array.  ``envelope``
    places the tile in coordinate space; ``crs`` is an opaque label
    (this reproduction uses simple equirectangular lon/lat).
    """

    data: np.ndarray
    envelope: Envelope | None = None
    crs: str = "EPSG:4326"
    nodata: float | None = None
    name: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ValueError(
                f"raster data must be (bands, height, width), got shape "
                f"{self.data.shape}"
            )

    @property
    def num_bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def band(self, index: int) -> np.ndarray:
        """Return one band as a (height, width) array."""
        if not 0 <= index < self.num_bands:
            raise IndexError(
                f"band {index} out of range for {self.num_bands}-band tile"
            )
        return self.data[index]

    def with_data(self, data: np.ndarray) -> "RasterTile":
        """Copy of this tile with replaced pixel data."""
        return RasterTile(
            data=data,
            envelope=self.envelope,
            crs=self.crs,
            nodata=self.nodata,
            name=self.name,
        )

    def append_band(self, band: np.ndarray) -> "RasterTile":
        """Copy with one extra band stacked at the end."""
        band = np.asarray(band, dtype=np.float32)
        if band.shape != (self.height, self.width):
            raise ValueError(
                f"band shape {band.shape} does not match tile "
                f"({self.height}, {self.width})"
            )
        return self.with_data(np.concatenate([self.data, band[None]], axis=0))

    def delete_band(self, index: int) -> "RasterTile":
        """Copy with the given band removed."""
        self.band(index)  # bounds check
        keep = [i for i in range(self.num_bands) if i != index]
        return self.with_data(self.data[keep])
