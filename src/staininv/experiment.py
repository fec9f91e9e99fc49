"""The desk experiment: MCAE against the GCN+ZCA baseline at one seed.

``run_desk(seed)`` is the one driver of the paper's headline comparison at
desk scale.  Acceptance criterion 5 is ``run_desk(2024)``, and
``scripts/seed_sweep.py`` runs it at other seeds.  The seed feeds every
step itself (synthesis, split, both models' initialisation and training),
so its numbers are not those of the CLI stages, each of which derives its
own seed.
"""

import time

from . import dataset, mcae, stanosa
from .metrics import nfmse_per_triplet

#: Criterion 5 asks each pair's MCAE mean NFMSE to be below this multiple of
#: the baseline's.
RATIO_BOUND = 0.7


def run_desk(seed):
    """2,000 chromatic-only 32x32 triplets; 50-epoch MCAE and baseline."""
    timings = {}
    t0 = time.perf_counter()
    base = dataset.generate_base_images(2000, 32, seed=seed)
    ds = dataset.synth_triplets(base, dataset.PERTURBATIONS, seed=seed)
    train, test = dataset.split(ds, seed=seed)
    timings["synth"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    model = mcae.mcae_init(ds.domain_ids, seed=seed)
    model, mcae_log = mcae.train_mcae(
        model,
        dataset.patch_store(train, ds.domain_ids, 8),
        mcae.McaeTrainConfig(epochs=50, lr=0.001, batch=32, k=10, seed=seed),
    )
    timings["mcae"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    patches = dataset.patch_store(train, ["A"], 8).reshape(-1, 192)
    baseline = stanosa.stanosa_init(seed=seed)
    baseline, stanosa_log = stanosa.train_stanosa(
        baseline,
        patches,
        stanosa.StanosaTrainConfig(epochs=50, lr=0.001, batch=256, seed=seed),
    )
    timings["stanosa"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    mcae_ext = {d: mcae.feature_extractor(model, d) for d in ds.domain_ids}
    stanosa_ext = {d: stanosa.feature_extractor(baseline) for d in ds.domain_ids}
    _, mcae_summary = nfmse_per_triplet(mcae_ext, test)
    _, stanosa_summary = nfmse_per_triplet(stanosa_ext, test)
    timings["eval"] = time.perf_counter() - t3
    return {
        "dataset": ds,
        "test": test,
        "model": model,
        "baseline": baseline,
        "mcae_log": mcae_log,
        "stanosa_log": stanosa_log,
        "mcae_summary": mcae_summary,
        "stanosa_summary": stanosa_summary,
        "timings": timings,
    }


def pair_ratios(run):
    """Per domain pair of a ``run_desk`` result: both models' held-out mean
    NFMSE (``mcae``, ``stanosa``) and the MCAE-to-baseline ``ratio``."""
    records = {}
    for pair, summary in run["mcae_summary"].items():
        ours = summary["mean"]
        theirs = run["stanosa_summary"][pair]["mean"]
        records[pair] = {"mcae": ours, "stanosa": theirs, "ratio": ours / theirs}
    return records
