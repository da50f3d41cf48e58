"""Synthetic dual-channel labeled scenes for desk-scale testing.

A scene is built from geometric primitives on gentle terrain: trees
(cylindrical trunk + ellipsoid crown), box buildings with facades,
catenary cable spans, low-vegetation patches, and "crown decoys" (tree
geometry with building spectra) that make geometry-only classification
demonstrably harder than spectral classification. Hard negatives follow
the airborne-survey failure cases: facades, cables, fences-like low
structure.

Every point belongs to one wavelength channel and draws its reflectance
from a per-class Gaussian in dB. Per-channel point totals equal
extent² x density exactly: object returns are generated first and the
ground fills the remainder, so the density contract holds by
construction. Position noise is applied to surface-sampled classes
only; crown and trunk points are sampled inside their primitive, which
keeps the label/geometry invariant exact.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cloud import Channel, Label, PointCloud
from .errors import BYTE_LIMIT, ConfigError

# Peak bytes per point of the synth stage (generate, then write): its peak
# RSS rose by 105 bytes per point from 2M to 4M points (seed 7).
SCENE_BYTES = 110


@dataclass(frozen=True)
class ClassSpectrum:
    """Per-class reflectance model: Gaussian in dB, one per channel."""

    green_mean_db: float
    nir_mean_db: float
    green_sigma_db: float = 1.5
    nir_sigma_db: float = 1.5


def default_spectra() -> dict[str, ClassSpectrum]:
    # Vegetation: strong NIR return, weak green. Built structure: the
    # reverse or flat. Values chosen for clear but not trivial margins.
    return {
        "ground": ClassSpectrum(green_mean_db=-14.0, nir_mean_db=-11.0),
        "low_veg": ClassSpectrum(green_mean_db=-13.0, nir_mean_db=-7.0),
        "tree": ClassSpectrum(green_mean_db=-15.0, nir_mean_db=-5.0),
        "building": ClassSpectrum(green_mean_db=-8.0, nir_mean_db=-9.0),
        "cable": ClassSpectrum(green_mean_db=-18.0, nir_mean_db=-17.0, green_sigma_db=2.0, nir_sigma_db=2.0),
    }


@dataclass
class SyntheticSceneConfig:
    extent: float = 160.0          # square scene side, meters
    density: float = 10.0          # points / m² / channel
    n_trees: int = 150
    n_buildings: int = 8
    n_cables: int = 4
    n_low_veg: int = 14
    n_crown_decoys: int = 12
    trunk_radius: tuple[float, float] = (0.10, 0.30)
    trunk_height: tuple[float, float] = (2.0, 6.0)
    crown_radius: tuple[float, float] = (1.2, 2.8)
    crown_half_height: tuple[float, float] = (1.5, 4.0)
    crown_point_factor: float = 2.2   # canopy returns per m² footprint, x density
    building_side: tuple[float, float] = (8.0, 20.0)
    building_height: tuple[float, float] = (4.0, 12.0)
    wall_point_factor: float = 0.35   # facade returns per m² wall, x density
    cable_height: tuple[float, float] = (8.0, 14.0)
    cable_points_per_meter: float = 3.0   # per channel
    low_veg_radius: tuple[float, float] = (2.0, 5.0)
    low_veg_height: tuple[float, float] = (0.2, 1.0)
    terrain_amplitude: float = 1.2
    noise_sigma: float = 0.02
    spectra: dict[str, ClassSpectrum] = field(default_factory=default_spectra)
    seed: int = 0

    def validate(self) -> None:
        if not self.extent > 0:
            raise ConfigError("scene extent must be positive")
        if not self.density > 0:
            raise ConfigError("point density must be positive")
        for name in ("n_trees", "n_buildings", "n_cables", "n_low_veg", "n_crown_decoys"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        missing = {"ground", "low_veg", "tree", "building", "cable"} - set(self.spectra)
        if missing:
            raise ConfigError(f"spectral model missing classes: {sorted(missing)}")


def _terrain(x, y, cfg: SyntheticSceneConfig):
    """Smooth gentle terrain; max slope ~ 2*pi*amplitude/extent."""
    w = 2.0 * math.pi / cfg.extent
    return cfg.terrain_amplitude * np.sin(w * x) * np.cos(w * y)


def _uniform_in_unit_ball(rng, n: int) -> np.ndarray:
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = rng.random(n) ** (1.0 / 3.0)
    return u * r[:, None]


def _in_footprint(x, y, footprints, margin: float = 0.0):
    """Boolean mask: point lies inside any building footprint + margin."""
    inside = np.zeros(x.shape, dtype=bool)
    for (x0, y0, x1, y1, _h) in footprints:
        inside |= (
            (x >= x0 - margin) & (x <= x1 + margin)
            & (y >= y0 - margin) & (y <= y1 + margin)
        )
    return inside


def _rejection_xy(rng, n: int, cfg, footprints, margin: float) -> np.ndarray:
    """n uniform XY positions over the extent, outside all footprints.
    ConfigError when 100 draws in a row place none: no room is left."""
    out = np.empty((n, 2))
    filled = empty = 0
    while filled < n:
        m = max(2 * (n - filled), 64)
        cand = rng.uniform(0.0, cfg.extent, size=(m, 2))
        ok = ~_in_footprint(cand[:, 0], cand[:, 1], footprints, margin)
        cand = cand[ok][: n - filled]
        out[filled : filled + cand.shape[0]] = cand
        filled += cand.shape[0]
        empty = 0 if cand.shape[0] else empty + 1
        if empty == 100:
            raise ConfigError(f"a {cfg.extent:.1f} m scene has no room outside its "
                              "building footprints; ask for more points")
    return out


class _SceneBuffer:
    """Accumulates per-class point batches in fixed order."""

    def __init__(self, cfg: SyntheticSceneConfig, rng):
        self.cfg = cfg
        self.rng = rng
        self.parts: list[tuple[np.ndarray, int, str, int, bool]] = []
        self.per_channel = {int(Channel.GREEN_532): 0, int(Channel.NIR_1064): 0}

    def add(self, xyz: np.ndarray, channel: int, spectrum_class: str,
            label: Label, ground_flag: bool = False) -> None:
        if xyz.shape[0] == 0:
            return
        self.parts.append((xyz, channel, spectrum_class, int(label), ground_flag))
        self.per_channel[channel] += xyz.shape[0]

    def assemble(self) -> PointCloud:
        cfg = self.cfg
        n = sum(p[0].shape[0] for p in self.parts)
        xyz = np.concatenate([p[0] for p in self.parts])
        channel = np.concatenate(
            [np.full(p[0].shape[0], p[1], dtype=np.uint8) for p in self.parts]
        )
        label = np.concatenate(
            [np.full(p[0].shape[0], p[3], dtype=np.uint8) for p in self.parts]
        )
        ground = np.concatenate(
            [np.full(p[0].shape[0], p[4], dtype=bool) for p in self.parts]
        )
        refl = np.empty(n, dtype=np.float32)
        pos = 0
        for pts, chan, cls, _lab, _g in self.parts:
            spec = cfg.spectra[cls]
            if chan == int(Channel.GREEN_532):
                mu, sigma = spec.green_mean_db, spec.green_sigma_db
            else:
                mu, sigma = spec.nir_mean_db, spec.nir_sigma_db
            refl[pos : pos + pts.shape[0]] = self.rng.normal(
                mu, sigma, size=pts.shape[0]
            )
            pos += pts.shape[0]
        # Shuffle: storage order must not encode class identity.
        order = self.rng.permutation(n)
        return PointCloud(
            x=xyz[order, 0], y=xyz[order, 1], z=xyz[order, 2],
            channel=channel[order], reflectance_db=refl[order],
            label=label[order], ground_flag=ground[order],
            crs_note="synthetic local meters",
        )


def _tree_points(rng, cfg, center_xy, trunk_r, trunk_h, crown_a, crown_c, n_crown, n_trunk):
    """Points inside one tree primitive (crown ellipsoid + trunk cylinder)."""
    zb = float(_terrain(center_xy[0], center_xy[1], cfg))
    crown = _uniform_in_unit_ball(rng, n_crown) * (crown_a, crown_a, crown_c)
    crown += (center_xy[0], center_xy[1], zb + trunk_h + 0.6 * crown_c)
    theta = rng.uniform(0.0, 2.0 * math.pi, n_trunk)
    rad = trunk_r * np.sqrt(rng.random(n_trunk))
    tz = zb + trunk_h * rng.random(n_trunk)
    trunk = np.column_stack(
        (center_xy[0] + rad * np.cos(theta), center_xy[1] + rad * np.sin(theta), tz)
    )
    return np.concatenate((crown, trunk))


def generate_scene(
    config: SyntheticSceneConfig, return_primitives: bool = False
):
    """Generate a fully labeled dual-channel scene.

    Returns a cloud with reflectance_db, label, and ground-truth
    ground_flag columns; byte-identical for identical configs. With
    return_primitives, also returns the primitive parameters (tree
    tuples (cx, cy, z_base, trunk_r, trunk_h, crown_a, crown_c) and
    building footprints (x0, y0, x1, y1, height)) for geometry checks.
    """
    cfg = config
    tree_primitives: list[tuple[float, ...]] = []
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    area = cfg.extent * cfg.extent
    target = int(round(area * cfg.density))  # per channel
    buf = _SceneBuffer(cfg, rng)
    channels = (int(Channel.GREEN_532), int(Channel.NIR_1064))

    # Buildings first: their footprints exclude other object anchors.
    footprints = []
    for _ in range(cfg.n_buildings):
        w = rng.uniform(*cfg.building_side)
        l = rng.uniform(*cfg.building_side)
        h = rng.uniform(*cfg.building_height)
        for _attempt in range(200):
            x0 = rng.uniform(1.0, max(cfg.extent - w - 1.0, 1.0))
            y0 = rng.uniform(1.0, max(cfg.extent - l - 1.0, 1.0))
            cand = (x0, y0, x0 + w, y0 + l, h)
            if not any(
                cand[0] < f[2] + 2 and cand[2] > f[0] - 2
                and cand[1] < f[3] + 2 and cand[3] > f[1] - 2
                for f in footprints
            ):
                footprints.append(cand)
                break

    for (x0, y0, x1, y1, h) in footprints:
        w, l = x1 - x0, y1 - y0
        zb = float(_terrain((x0 + x1) / 2, (y0 + y1) / 2, cfg))
        n_roof = int(round(w * l * cfg.density))
        perim = 2.0 * (w + l)
        n_wall = int(round(perim * h * cfg.density * cfg.wall_point_factor))
        for chan in channels:
            rx = rng.uniform(x0, x1, n_roof)
            ry = rng.uniform(y0, y1, n_roof)
            rz = np.full(n_roof, zb + h) + rng.normal(0, cfg.noise_sigma, n_roof)
            buf.add(np.column_stack((rx, ry, rz)), chan, "building", Label.NON_TREE)
            t = rng.uniform(0.0, perim, n_wall)
            wx = np.empty(n_wall)
            wy = np.empty(n_wall)
            s0, s1, s2 = w, w + l, 2 * w + l
            south = t < s0
            east = (t >= s0) & (t < s1)
            north = (t >= s1) & (t < s2)
            west = t >= s2
            wx[south], wy[south] = x0 + t[south], y0
            wx[east], wy[east] = x1, y0 + (t[east] - s0)
            wx[north], wy[north] = x1 - (t[north] - s1), y1
            wx[west], wy[west] = x0, y1 - (t[west] - s2)
            wz = zb + h * rng.random(n_wall)
            wx = wx + rng.normal(0, cfg.noise_sigma, n_wall)
            wy = wy + rng.normal(0, cfg.noise_sigma, n_wall)
            buf.add(np.column_stack((wx, wy, wz)), chan, "building", Label.NON_TREE)

    # Trees and crown decoys share geometry; decoys carry building spectra
    # and the non-tree label, so shape alone cannot separate the classes.
    for kind, count in (("tree", cfg.n_trees), ("decoy", cfg.n_crown_decoys)):
        if count == 0:
            continue
        margin = cfg.crown_radius[1] + 1.0
        centers = _rejection_xy(rng, count, cfg, footprints, margin)
        for i in range(count):
            trunk_r = rng.uniform(*cfg.trunk_radius)
            trunk_h = rng.uniform(*cfg.trunk_height)
            crown_a = rng.uniform(*cfg.crown_radius)
            crown_c = rng.uniform(*cfg.crown_half_height)
            n_crown = int(round(math.pi * crown_a**2 * cfg.density * cfg.crown_point_factor))
            n_trunk = max(int(round(2 * trunk_r * trunk_h * cfg.density)), 8)
            cls = "tree" if kind == "tree" else "building"
            lab = Label.TREE if kind == "tree" else Label.NON_TREE
            if kind == "tree":
                zb = float(_terrain(centers[i, 0], centers[i, 1], cfg))
                tree_primitives.append(
                    (centers[i, 0], centers[i, 1], zb, trunk_r, trunk_h,
                     crown_a, crown_c)
                )
            for chan in channels:
                pts = _tree_points(
                    rng, cfg, centers[i], trunk_r, trunk_h, crown_a, crown_c,
                    n_crown, n_trunk,
                )
                buf.add(pts, chan, cls, lab)

    if cfg.n_low_veg:
        centers = _rejection_xy(rng, cfg.n_low_veg, cfg, footprints, cfg.low_veg_radius[1])
        for i in range(cfg.n_low_veg):
            rad = rng.uniform(*cfg.low_veg_radius)
            hmax = rng.uniform(*cfg.low_veg_height)
            n_pts = int(round(math.pi * rad**2 * cfg.density * 1.5))
            for chan in channels:
                theta = rng.uniform(0, 2 * math.pi, n_pts)
                rr = rad * np.sqrt(rng.random(n_pts))
                px = centers[i, 0] + rr * np.cos(theta)
                py = centers[i, 1] + rr * np.sin(theta)
                pz = _terrain(px, py, cfg) + hmax * rng.random(n_pts)
                buf.add(np.column_stack((px, py, pz)), chan, "low_veg", Label.NON_TREE)

    for _ in range(cfg.n_cables):
        side = rng.integers(0, 2)
        c0 = rng.uniform(0.1 * cfg.extent, 0.9 * cfg.extent)
        c1 = rng.uniform(0.1 * cfg.extent, 0.9 * cfg.extent)
        if side == 0:
            p0 = np.array([0.0, c0])
            p1 = np.array([cfg.extent, c1])
        else:
            p0 = np.array([c0, 0.0])
            p1 = np.array([c1, cfg.extent])
        height = rng.uniform(*cfg.cable_height)
        sag = rng.uniform(1.0, 2.5)
        length = float(np.linalg.norm(p1 - p0))
        n_pts = int(round(length * cfg.cable_points_per_meter))
        for chan in channels:
            t = rng.random(n_pts)
            px = p0[0] + t * (p1[0] - p0[0]) + rng.normal(0, 0.05, n_pts)
            py = p0[1] + t * (p1[1] - p0[1]) + rng.normal(0, 0.05, n_pts)
            pz = (
                _terrain(px, py, cfg) + height - sag * (1.0 - (2.0 * t - 1.0) ** 2)
                + rng.normal(0, 0.05, n_pts)
            )
            buf.add(np.column_stack((px, py, pz)), chan, "cable", Label.NON_TREE)

    # Ground fills each channel up to the exact density target.
    for chan in channels:
        n_ground = target - buf.per_channel[chan]
        if n_ground < 0:
            raise ConfigError(
                "object point load exceeds the density target; raise density "
                "or shrink object counts"
            )
        gxy = _rejection_xy(rng, n_ground, cfg, footprints, 0.0)
        gz = _terrain(gxy[:, 0], gxy[:, 1], cfg) + rng.normal(
            0, cfg.noise_sigma, n_ground
        )
        buf.add(
            np.column_stack((gxy[:, 0], gxy[:, 1], gz)), chan, "ground",
            Label.NON_TREE, ground_flag=True,
        )

    cloud = buf.assemble()
    if return_primitives:
        return cloud, {"trees": tree_primitives, "buildings": footprints}
    return cloud


def scaled_config(target_points: int, seed: int = 0) -> SyntheticSceneConfig:
    """Config whose total point count is approximately target_points.

    Keeps the default per-channel density and scales extent and object
    counts together, so class balance stays roughly constant. A scene
    that would hold more than BYTE_LIMIT bytes (SCENE_BYTES per point) is
    refused with a ConfigError naming synth.target_points.
    """
    if target_points < 1:
        raise ConfigError(f"synth.target_points must be >= 1, got {target_points}")
    need = target_points * SCENE_BYTES
    if need > BYTE_LIMIT:
        raise ConfigError(
            f"synth.target_points {target_points} is too large: its scene would hold "
            f"{need / 2**30:.1f} GiB, over the limit of {BYTE_LIMIT / 2**30:g} GiB")
    base = SyntheticSceneConfig()
    area = target_points / (2.0 * base.density)
    extent = math.sqrt(area)
    ratio = area / (base.extent * base.extent)
    return replace(
        base,
        extent=extent,
        n_trees=max(int(round(base.n_trees * ratio)), 1),
        n_buildings=max(int(round(base.n_buildings * ratio)), 1),
        n_cables=max(int(round(base.n_cables * ratio)), 1),
        n_low_veg=max(int(round(base.n_low_veg * ratio)), 1),
        n_crown_decoys=max(int(round(base.n_crown_decoys * ratio)), 1),
        seed=seed,
    )
