"""Multispectral airborne LiDAR tree-point extraction.

Dual-wavelength (532 nm green / 1064 nm NIR) point clouds are denoised,
channel-merged, ground-filtered, height-normalized and subsampled; a
pseudo-NDVI spectral index and a lightweight point classifier separate
tree from non-tree points; the evaluation module scores predictions and
runs the six-configuration spectral ablation.
"""

__version__ = "0.1.0"
