"""Synthetic image and histogram generators — the Flickr substitute.

The paper's testbed is 1M images downloaded from Flickr.com, represented by
512-d normalized RGB histograms (Section 5.1).  Without network access we
substitute a synthetic corpus (DESIGN.md Section 5) with the structure that
matters for the experiments:

* histograms are sparse-ish, non-negative, unit-sum;
* the corpus is *clustered* (photos of sunsets resemble each other), so
  metric access methods have something to prune on;
* mass concentrates on perceptually adjacent bins, so the QFD matrix's
  cross-bin correlations are exercised.

Two generators are provided.  :class:`SyntheticImageCorpus` renders actual
pixel arrays from parametric color-blob scenes and feeds them through the
real histogram extractor — slow but end-to-end faithful.
:func:`clustered_histograms` samples equivalent histograms directly — the
fast path used by the large benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..color.histograms import rgb_histogram
from ..color.prototypes import rgb_bin_prototypes
from ..exceptions import QueryError
from ..storage.mmap_store import MmapVectorStore

__all__ = [
    "SyntheticImageCorpus",
    "clustered_histograms",
    "stream_clustered_histograms",
    "gaussian_vectors",
]


def _random_palette(rng: np.random.Generator, blobs: int) -> tuple[np.ndarray, np.ndarray]:
    """Random scene palette: blob centers in RGB and mixing proportions."""
    centers = rng.uniform(0.0, 1.0, size=(blobs, 3))
    weights = rng.dirichlet(np.ones(blobs) * 2.0)
    return centers, weights


@dataclass(frozen=True)
class SyntheticImageCorpus:
    """Parametric photo-like scenes rendered as RGB pixel arrays.

    Each image is a mixture of Gaussian color blobs: a "sunset" scene, for
    example, is a couple of red/orange blobs plus a dark one.  Scenes are
    grouped into *themes* (shared palettes with per-image jitter) so the
    corpus is clustered like a real photo collection.

    Parameters
    ----------
    height, width:
        Rendered image size in pixels.
    themes:
        Number of shared palettes (clusters) in the corpus.
    blobs_per_theme:
        Color blobs per palette.
    color_noise:
        Std-dev of per-pixel color noise around a blob center.
    seed:
        Seed of the corpus; each image then derives its own stream.
    """

    height: int = 32
    width: int = 32
    themes: int = 10
    blobs_per_theme: int = 4
    color_noise: float = 0.08
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise QueryError("image size must be at least 1x1")
        if self.themes < 1 or self.blobs_per_theme < 1:
            raise QueryError("themes and blobs_per_theme must be >= 1")
        if self.color_noise < 0.0:
            raise QueryError("color_noise must be non-negative")

    def _theme_palettes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(self.seed)
        return [_random_palette(rng, self.blobs_per_theme) for _ in range(self.themes)]

    def render(self, index: int) -> np.ndarray:
        """Render image *index* as an ``(h, w, 3)`` array of RGB in [0, 1]."""
        if index < 0:
            raise QueryError(f"image index must be non-negative, got {index}")
        palettes = self._theme_palettes()
        rng = np.random.default_rng((self.seed, index))
        centers, weights = palettes[index % self.themes]
        # Per-image palette jitter keeps images within a theme distinct.
        centers = np.clip(centers + rng.normal(0.0, 0.05, size=centers.shape), 0.0, 1.0)
        n_pixels = self.height * self.width
        blob_of_pixel = rng.choice(len(weights), size=n_pixels, p=weights)
        colors = centers[blob_of_pixel] + rng.normal(0.0, self.color_noise, size=(n_pixels, 3))
        return np.clip(colors, 0.0, 1.0).reshape(self.height, self.width, 3)

    def histograms(self, count: int, bins_per_channel: int) -> np.ndarray:
        """Render *count* images and extract their normalized histograms."""
        if count < 1:
            raise QueryError(f"count must be >= 1, got {count}")
        return np.vstack(
            [rgb_histogram(self.render(i), bins_per_channel) for i in range(count)]
        )


def _theme_base_shapes(
    rng: np.random.Generator,
    prototypes: np.ndarray,
    themes: int,
    smoothing: float,
) -> list[np.ndarray]:
    """Per-theme normalized bin-mass shapes (shared by both generators)."""
    n_bins = prototypes.shape[0]
    base_shapes = []
    for _ in range(themes):
        anchors = rng.uniform(0.0, 1.0, size=(3, 3))
        anchor_weights = rng.dirichlet(np.ones(3) * 2.0)
        diff = prototypes[:, None, :] - anchors[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        bumps = np.exp(-(dist / smoothing) ** 2) @ anchor_weights
        total = bumps.sum()
        if total <= 0.0:  # pragma: no cover - smoothing > 0 prevents this
            bumps = np.full(n_bins, 1.0 / n_bins)
        else:
            bumps = bumps / total
        base_shapes.append(bumps)
    return base_shapes


def clustered_histograms(
    count: int,
    bins_per_channel: int,
    *,
    themes: int = 10,
    concentration: float = 6.0,
    smoothing: float = 0.12,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sample normalized RGB histograms directly (fast Flickr substitute).

    Each theme places mass around a few anchor colors; the mass of a bin
    decays with the RGB distance between the bin prototype and its anchor
    (``smoothing`` controls the decay length, coupling perceptually adjacent
    bins exactly as photographs do).  Per-image Dirichlet noise individuates
    the images within a theme.

    Returns an ``(count, bins_per_channel^3)`` array with unit row sums.
    The Dirichlet floor (``alpha >= 1e-3`` per bin) emits float64
    *subnormals* — about 1 % of the entries at 512-d, down to 5e-324 —
    which real count/pixel histograms never contain.  They are part of
    every fixture and benchmark input, so they stay; the QFD kernels flush
    them before multiplying (``repro.kernels.gram._flush_subnormals``).
    """
    if count < 1:
        raise QueryError(f"count must be >= 1, got {count}")
    if themes < 1:
        raise QueryError(f"themes must be >= 1, got {themes}")
    if smoothing <= 0.0 or concentration <= 0.0:
        raise QueryError("smoothing and concentration must be positive")
    rng = np.random.default_rng(0) if rng is None else rng
    prototypes = rgb_bin_prototypes(bins_per_channel)
    n_bins = prototypes.shape[0]
    base_shapes = _theme_base_shapes(rng, prototypes, themes, smoothing)

    out = np.empty((count, n_bins), dtype=np.float64)
    theme_of = rng.integers(0, themes, size=count)
    for i in range(count):
        shape = base_shapes[theme_of[i]]
        # Dirichlet jitter around the theme shape; alpha ~ concentration.
        alpha = shape * concentration * n_bins + 1e-3
        out[i] = rng.dirichlet(alpha)
    return out


def stream_clustered_histograms(
    count: int,
    bins_per_channel: int,
    *,
    themes: int = 10,
    concentration: float = 6.0,
    smoothing: float = 0.12,
    rng: np.random.Generator | None = None,
    store: MmapVectorStore | None = None,
    dtype: str = "float32",
    path: "str | None" = None,
    block_rows: int = 65536,
) -> MmapVectorStore:
    """Stream Flickr-scale clustered histograms straight into a memmap store.

    The out-of-core twin of :func:`clustered_histograms`: the same theme
    model (anchor colors, distance-decayed bin mass, Dirichlet jitter per
    image), but sampled block-by-block with vectorized gamma draws
    (``Dirichlet(a) = Gamma(a) / sum``) and written directly to a
    :class:`~repro.storage.MmapVectorStore` — the heap never holds more
    than one ``(block_rows, n_bins)`` slab, so the paper's 1M x 512-d
    testbed generates in bounded memory.

    Appends to *store* when given (its dimensionality must match),
    otherwise creates one (``dtype``/``path`` forwarded, pre-sized to
    *count*).  Returns the store.  Deterministic for a given *rng*
    seed; the sampling stream differs from :func:`clustered_histograms`,
    so the two generators produce statistically equivalent but not
    row-identical corpora.  Like it, the ``alpha >= 1e-3`` floor emits
    subnormals: ~1 % of a float64 store; ~1.6 % of a float32 store in
    float32 terms, none of which is subnormal once a kernel tile upcasts
    it to float64.
    """
    if count < 1:
        raise QueryError(f"count must be >= 1, got {count}")
    if themes < 1:
        raise QueryError(f"themes must be >= 1, got {themes}")
    if smoothing <= 0.0 or concentration <= 0.0:
        raise QueryError("smoothing and concentration must be positive")
    if block_rows < 1:
        raise QueryError(f"block_rows must be >= 1, got {block_rows}")
    rng = np.random.default_rng(0) if rng is None else rng
    prototypes = rgb_bin_prototypes(bins_per_channel)
    n_bins = prototypes.shape[0]
    base_shapes = _theme_base_shapes(rng, prototypes, themes, smoothing)
    # alpha ~ concentration, matching clustered_histograms' jitter model.
    alphas = np.stack(base_shapes) * concentration * n_bins + 1e-3
    if store is None:
        store = MmapVectorStore(n_bins, dtype=dtype, path=path, capacity=count)
    elif store.dim != n_bins:
        raise QueryError(
            f"store dimensionality {store.dim} does not match "
            f"bins_per_channel^3 = {n_bins}"
        )
    store.ensure_capacity(len(store) + count)
    # Dirty mapped pages count toward RSS until flushed; release them
    # every ~256 MiB so generating 1M x 512-d never looks like holding it.
    drop_every = max(
        1, (256 << 20) // max(1, block_rows * n_bins * store.dtype.itemsize)
    )
    for i, start in enumerate(range(0, count, block_rows)):
        k = min(block_rows, count - start)
        theme_of = rng.integers(0, themes, size=k)
        block = rng.standard_gamma(alphas[theme_of])
        sums = block.sum(axis=1, keepdims=True)
        sums[sums == 0.0] = 1.0  # pragma: no cover - alpha > 0 prevents this
        block /= sums
        store.append_block(block)
        if (i + 1) % drop_every == 0:
            store.drop_pages()
    return store


def gaussian_vectors(
    count: int,
    dim: int,
    *,
    clusters: int = 8,
    spread: float = 0.15,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Generic clustered Gaussian vectors for non-histogram experiments."""
    if count < 1 or dim < 1:
        raise QueryError("count and dim must be >= 1")
    if clusters < 1:
        raise QueryError(f"clusters must be >= 1, got {clusters}")
    if spread <= 0.0:
        raise QueryError("spread must be positive")
    rng = np.random.default_rng(0) if rng is None else rng
    centers = rng.uniform(-1.0, 1.0, size=(clusters, dim))
    labels = rng.integers(0, clusters, size=count)
    return centers[labels] + rng.normal(0.0, spread, size=(count, dim))
