"""Per-layer tracing of staininv from outside the package.

The tracer wraps public functions of the staininv modules in timing spans
without editing any file under ``src/``.  Several modules bind numerics,
colour and dataset helpers with ``from .x import name``, so a wrapper is
installed in every staininv namespace that holds the original function
object, not only in the defining module.  ``uninstall`` restores every
binding, so an untraced run in the same process executes the original code.

For each span key ``<module>.<function>`` the tracer records ``calls``,
``busy_s`` (inclusive wall time) and ``self_s`` (busy time minus the time
covered by nested spans).  Counters computed from argument shapes
(``rows``, ``flop``, ``elements``, ``bytes``) are exact integers, so they
repeat bit-for-bit across runs of one seed.
"""

import functools
import importlib
import os
import pkgutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "staininv"


def _dense_flop(layers, rows, per_matmul):
    return per_matmul * rows * sum(int(layer.weights.size) for layer in layers)


def _count_mlp_forward(stat, args, result, originals):
    rows = int(np.shape(args[1])[0])
    stat["rows"] += rows
    stat["flop"] += _dense_flop(args[0], rows, 2)  # x @ W.T per layer


def _count_mlp_backward(stat, args, result, originals):
    rows = int(np.shape(args[2])[0])
    stat["rows"] += rows
    stat["flop"] += _dense_flop(args[0], rows, 4)  # dW and dx per layer


def _count_adam_step(stat, args, result, originals):
    params = args[1]
    if isinstance(params, np.ndarray):
        params = [params]
    stat["elements"] += sum(int(np.size(p)) for p in params)


def _dataset_bytes(ds):
    return sum(int(img.pixels.nbytes) for t in ds.triplets for img in t.values())


def _count_load_dataset(stat, args, result, originals):
    stat["bytes"] += _dataset_bytes(result)


def _count_save_dataset(stat, args, result, originals):
    stat["bytes"] += _dataset_bytes(args[0])


def _count_dump_json(stat, args, result, originals):
    stat["bytes"] += os.path.getsize(args[1])


def _count_kmeans_fit(stat, args, result, originals):
    """Count refits whose centroids are not a Lloyd fixed point.

    A refit that converged returns the member means of its own assignment,
    bit for bit; one stopped by ``max_iters`` normally does not.
    """
    dists = originals.get("mcae._pairwise_sq_dists")
    if dists is None:
        return
    x = np.asarray(args[0], dtype=np.float64)
    centroids = result.centroids
    labels = dists(x, centroids).argmin(axis=1)
    for j in range(centroids.shape[0]):
        members = labels == j
        if not members.any() or not np.array_equal(
            x[members].mean(axis=0), centroids[j]
        ):
            stat["capped"] += 1
            return


#: span key -> counter called as counter(stat, args, result, originals), where
#: originals maps each traced key to the unwrapped function
SPANS = {
    "numerics.mlp_forward": _count_mlp_forward,
    "numerics.mlp_backward": _count_mlp_backward,
    "numerics.adam_step": _count_adam_step,
    "numerics.conv2d_backward": None,
    "mcae.kmeans_fit": _count_kmeans_fit,
    "mcae.kmeans_assign": None,
    "mcae.combined_loss_and_grads": None,
    "mcae.train_mcae": None,
    "stanosa.train_stanosa": None,
    "stanosa.stanosa_preprocess": None,
    "dataset.zca_fit": None,
    "dataset.gcn": None,
    "dataset.zca_apply": None,
    "dataset.load_dataset": _count_load_dataset,
    "dataset.parse_ppm": None,
    "dataset.extract_patches": None,
    "dataset.generate_base_images": None,
    "dataset.synth_triplets": None,
    "dataset.save_dataset": _count_save_dataset,
    "colour.ssim": None,
    "colour.hsd_forward": None,
    "colour.rgb_to_od": None,
    "metrics.density_ssim_table": None,
    "metrics.cxcy_sample": None,
    "metrics.nfmse_per_triplet": None,
    "metrics.normalize_feature_map": None,
    "classifier.featurize": None,
    "classifier.train_classifier": None,
    "classifier.evaluate_classifier": None,
    "classifier.generate_labeled_set": None,
    "cyclegan.train_cyclegan": None,
    "persist.dump_json": _count_dump_json,
    "persist.load_json": None,
}

#: helpers counted without a span (a span would move their time out of the
#: caller's self time): function key -> (enclosing span key, counter name)
COUNTED = {
    "mcae._pairwise_sq_dists": ("mcae.kmeans_fit", "dist_evals"),
}


def _package_modules():
    """Import and return every module of the package."""
    root = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(root.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    prefix = PACKAGE + "."
    return [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(prefix)]


class Tracer:
    """Span recorder that patches the package's function bindings while active."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.missing = []
        self._stack = []  # [span key, time covered by child spans]
        self._patches = []  # (namespace, attribute, original)
        self._originals = {}

    # -- spans

    @contextmanager
    def span(self, key):
        frame = [key, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter() - start)

    def _close(self, frame, duration):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        stat = self.stats[frame[0]]
        stat["calls"] += 1
        stat["busy_s"] += duration
        stat["self_s"] += duration - frame[1]
        return stat

    def _span_wrapper(self, key, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = self._close(frame, time.perf_counter() - start)
            if counter is not None:
                counted = time.perf_counter()
                counter(stat, args, result, self._originals)
                if self._stack:  # keep the counter's cost out of the caller's self time
                    self._stack[-1][1] += time.perf_counter() - counted
            return result

        return traced

    def _count_wrapper(self, fn, enclosing, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if any(frame[0] == enclosing for frame in self._stack):
                self.stats[enclosing][name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching

    def install(self):
        modules = _package_modules()
        wrappers = {}
        self.missing = []
        for key, counter in SPANS.items():
            fn = self._resolve(key)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._span_wrapper(key, fn, counter))
        for key, (enclosing, name) in COUNTED.items():
            fn = self._resolve(key)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._count_wrapper(fn, enclosing, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def _resolve(self, key):
        module_name, attr = key.rsplit(".", 1)
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(key)
            return None
        self._originals[key] = fn
        return fn

    def uninstall(self):
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self):
        """Return the statistics recorded so far and start afresh."""
        stats = {key: dict(stat) for key, stat in self.stats.items()}
        self.stats = defaultdict(lambda: defaultdict(float))
        return stats
