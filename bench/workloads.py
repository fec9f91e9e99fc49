"""The benchmark's workloads: subcommand scripts, output checks, expected counts.

Each workload is one closed-loop client: it runs ``staininv`` subcommands one
after another through ``staininv.cli.main``, each waiting for the previous to
finish.  A workload has a set-up script (run before timing starts) and a pass
script (the timed part, repeated), both built from the workload seed, which
every subcommand receives as ``--seed``.  See ``bench/NOTES.md`` for why each
workload exists and which layers it stresses.
"""

import csv
import json
import math
import os
from collections import Counter

from staininv import mcae, stanosa

DOMAINS = 3  # A plus the two perturbed domains of the default synth config
PAIRS = 3
TRAIN_FRACTION = 0.8  # the train-mcae / train-stanosa default
SSIM_FLOOR = 0.999  # density-plane SSIM of aligned synthetic domains
CYCLE_SHRINK = 0.5  # last-epoch cycle L1 must fall below half the first

#: the acceptance fixture's desk shapes
DESK = {
    "triplets": 2000, "size": 32, "stride": 8, "batch": 32, "k": 10,
    "kmeans_sample": 10000, "lr": 0.001, "stanosa_batch": 256,
}

SIZES = {
    "full": {
        "desk-train": dict(DESK, mcae_epochs=4, stanosa_epochs=4),
        "desk-eval": dict(
            DESK, setup_epochs=1, pixels=5000, per_class=60, clf_epochs=30,
            clf_lr=0.01,
        ),
        "toy-gan": {"patches": 256, "batch": 32, "epochs": 200, "warmup_epochs": 20},
    },
    # seconds-long variants for the self-test
    "tiny": {
        "desk-train": dict(DESK, triplets=20, kmeans_sample=100, mcae_epochs=2,
                           stanosa_epochs=2),
        "desk-eval": dict(
            DESK, triplets=20, kmeans_sample=100, setup_epochs=1, pixels=200,
            per_class=8, clf_epochs=3, clf_lr=0.01,
        ),
        "toy-gan": {"patches": 64, "batch": 32, "epochs": 60, "warmup_epochs": 2},
    },
}


class Paths:
    """Directories of one benchmark run: set-up inputs and pass outputs."""

    def __init__(self, work):
        self.setup = os.path.join(work, "setup")
        self.run = os.path.join(work, "run")

    def setup_dir(self, name):
        return os.path.join(self.setup, name)

    def run_dir(self, name):
        return os.path.join(self.run, name)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_rows(path, columns, expected_rows):
    rows = _read_csv(path)
    return len(rows) == expected_rows and all(
        math.isfinite(float(row[c])) for row in rows for c in columns
    )


# --- expected call counts, per subcommand ---


def _n_train(triplets):
    return int(round(triplets * TRAIN_FRACTION))  # as dataset.split rounds


def _load_counts(c):
    return Counter({"dataset.load_dataset": 1, "dataset.parse_ppm": DOMAINS * c["triplets"]})


def _synth_counts(c):
    perturbed = (DOMAINS - 1) * c["triplets"]  # one HSD round trip per twin image
    return Counter({
        "dataset.generate_base_images": 1, "dataset.synth_triplets": 1,
        "dataset.save_dataset": 1, "colour.hsd_forward": perturbed,
        "colour.rgb_to_od": perturbed,
    })


def _train_mcae_counts(c, epochs):
    n_train = _n_train(c["triplets"])
    steps = math.ceil(n_train / c["batch"]) * epochs
    refits = epochs + 1  # before the first step and after every epoch
    return _load_counts(c) + Counter({
        "dataset.extract_patches": DOMAINS * n_train, "mcae.train_mcae": 1,
        "mcae.combined_loss_and_grads": steps, "mcae.kmeans_assign": steps,
        "mcae.kmeans_fit": refits, "numerics.adam_step": steps,
        # encoder + decoder per domain, plus one encoder pass per refit
        "numerics.mlp_forward": 2 * DOMAINS * steps + refits,
        "numerics.mlp_backward": 2 * DOMAINS * steps, "persist.dump_json": 1,
    })


def _train_stanosa_counts(c, epochs):
    n_train = _n_train(c["triplets"])
    grid = (c["size"] - 8) // c["stride"] + 1
    steps = math.ceil(n_train * grid * grid / c["stanosa_batch"]) * epochs
    return _load_counts(c) + Counter({
        "dataset.extract_patches": n_train, "stanosa.train_stanosa": 1,
        "dataset.zca_fit": 1, "dataset.gcn": 2, "dataset.zca_apply": 1,
        "stanosa.stanosa_preprocess": 1, "numerics.mlp_forward": steps,
        "numerics.mlp_backward": steps, "numerics.adam_step": steps,
        "persist.dump_json": 1,
    })


def _eval_nfmse_counts(c):
    images = DOMAINS * c["triplets"]  # per model
    return _load_counts(c) + Counter({
        "persist.load_json": 2, "metrics.nfmse_per_triplet": 2,
        "classifier.featurize": 2 * images, "dataset.extract_patches": 2 * images,
        "metrics.normalize_feature_map": 2 * images,
        "numerics.mlp_forward": 2 * images, "stanosa.stanosa_preprocess": images,
        "dataset.gcn": images, "dataset.zca_apply": images,
    })


def _eval_hsd_counts(c):
    images = DOMAINS * c["triplets"]
    return _load_counts(c) + Counter({
        "metrics.cxcy_sample": DOMAINS, "metrics.density_ssim_table": 1,
        "colour.hsd_forward": 2 * images, "colour.rgb_to_od": 2 * images,
        "colour.ssim": PAIRS * c["triplets"],
    })


def _clf_split(c):
    n = 3 * c["per_class"]  # three texture classes
    n_train, n_val = int(round(n * 0.75)), int(round(n * 0.05))
    return n_train, n_val, n - n_train - n_val


def _featurized(images):
    return Counter({
        "classifier.featurize": images, "dataset.extract_patches": images,
        "numerics.mlp_forward": images,
    })


def _train_clf_counts(c):
    n_train, n_val, _ = _clf_split(c)
    steps = math.ceil(n_train / 32) * c["clf_epochs"]  # the train-clf batch default
    return _featurized(n_train + n_val) + Counter({
        "persist.load_json": 1, "classifier.generate_labeled_set": 1,
        "classifier.train_classifier": 1, "numerics.conv2d_backward": 2 * steps,
        "numerics.adam_step": steps, "persist.dump_json": 1,
    })


def _eval_clf_counts(c):
    return _featurized(_clf_split(c)[2]) + Counter({
        "persist.load_json": 2, "classifier.generate_labeled_set": 1,
        "classifier.evaluate_classifier": 1,
    })


def _cyclegan_counts(c, epochs):
    steps = epochs * (c["patches"] // c["batch"])
    return Counter({
        "cyclegan.train_cyclegan": 1,
        # 10 generator-pass + 2 fake + 4 discriminator forwards per step,
        # plus the final F(A) the subcommand summarises
        "numerics.mlp_forward": 16 * steps + 1,
        "numerics.mlp_backward": 12 * steps, "numerics.adam_step": 2 * steps,
    })


# --- workloads ---


class Workload:
    name = None

    def __init__(self, seed, sizes="full"):
        self.seed = seed
        self.c = SIZES[sizes][self.name]

    def _cmd(self, *argv):
        return [*map(str, argv), "--seed", str(self.seed)]

    def _synth(self, p):
        c = self.c
        return self._cmd("synth", "--triplets", c["triplets"], "--size", c["size"],
                         "--out-dir", p.setup_dir("ds"))

    def _train_mcae(self, p, epochs, out):
        c = self.c
        return self._cmd(
            "train-mcae", "--dataset", p.setup_dir("ds"), "--epochs", epochs,
            "--lr", c["lr"], "--batch", c["batch"], "--stride", c["stride"],
            "--k", c["k"], "--kmeans-sample", c["kmeans_sample"], "--out-dir", out,
        )

    def _train_stanosa(self, p, epochs, out):
        c = self.c
        return self._cmd(
            "train-stanosa", "--dataset", p.setup_dir("ds"), "--epochs", epochs,
            "--lr", c["lr"], "--batch", c["stanosa_batch"], "--stride", c["stride"],
            "--out-dir", out,
        )

    def setup_commands(self, p):
        raise NotImplementedError

    def pass_commands(self, p):
        raise NotImplementedError

    def checks(self, p):
        """(label, callable returning bool) pairs over one pass's outputs."""
        raise NotImplementedError

    def quality_loss(self, p):
        """The workload's headline quality number; lower is better."""
        raise NotImplementedError

    def expected_calls(self):
        """Span call counts of one set-up plus one pass, from the config."""
        raise NotImplementedError


class DeskTrain(Workload):
    name = "desk-train"

    def setup_commands(self, p):
        return [self._synth(p)]

    def pass_commands(self, p):
        c = self.c
        return [
            self._train_mcae(p, c["mcae_epochs"], p.run_dir("mcae")),
            self._train_stanosa(p, c["stanosa_epochs"], p.run_dir("stanosa")),
        ]

    def checks(self, p):
        c = self.c
        mcae_dir, stanosa_dir = p.run_dir("mcae"), p.run_dir("stanosa")
        return [
            ("mcae model reloads",
             lambda: mcae.load_mcae(os.path.join(mcae_dir, "mcae_model.json")).kmeans is not None),
            ("stanosa model reloads",
             lambda: stanosa.load_stanosa(os.path.join(stanosa_dir, "stanosa_model.json")).zca is not None),
            ("mcae loss rows finite",
             lambda: _finite_rows(os.path.join(mcae_dir, "mcae_loss.csv"),
                                  ["reconstruction", "feature", "cluster", "total"],
                                  c["mcae_epochs"])),
            ("stanosa loss rows finite",
             lambda: _finite_rows(os.path.join(stanosa_dir, "stanosa_loss.csv"),
                                  ["reconstruction", "total"], c["stanosa_epochs"])),
        ]

    def quality_loss(self, p):
        # the last-epoch total loss of both models trained in the pass
        return sum(
            float(_read_csv(os.path.join(p.run_dir(kind), f"{kind}_loss.csv"))[-1]["total"])
            for kind in ("mcae", "stanosa")
        )

    def expected_calls(self):
        c = self.c
        return (_synth_counts(c) + _train_mcae_counts(c, c["mcae_epochs"])
                + _train_stanosa_counts(c, c["stanosa_epochs"]))


class DeskEval(Workload):
    name = "desk-eval"

    def setup_commands(self, p):
        epochs = self.c["setup_epochs"]
        return [
            self._synth(p),
            self._train_mcae(p, epochs, p.setup_dir("mcae")),
            self._train_stanosa(p, epochs, p.setup_dir("stanosa")),
        ]

    def pass_commands(self, p):
        c = self.c
        model = os.path.join(p.setup_dir("mcae"), "mcae_model.json")
        baseline = os.path.join(p.setup_dir("stanosa"), "stanosa_model.json")
        clf = p.run_dir("clf")
        return [
            self._cmd("eval-nfmse", "--dataset", p.setup_dir("ds"), "--model", model,
                      "--model", baseline, "--split", "all", "--out-dir", p.run_dir("nfmse")),
            self._cmd("eval-hsd", "--dataset", p.setup_dir("ds"), "--pixels", c["pixels"],
                      "--out-dir", p.run_dir("hsd")),
            self._cmd("train-clf", "--model", model, "--per-class", c["per_class"],
                      "--epochs", c["clf_epochs"], "--lr", c["clf_lr"], "--out-dir", clf),
            self._cmd("eval-clf", "--model", model, "--head",
                      os.path.join(clf, "clf_head.json"), "--per-class", c["per_class"],
                      "--out-dir", clf),
        ]

    def checks(self, p):
        c = self.c
        nfmse_dir = p.run_dir("nfmse")

        def ssim_floor():
            rows = _read_csv(os.path.join(p.run_dir("hsd"), "density_ssim.csv"))
            return len(rows) == PAIRS and all(float(r["mean"]) >= SSIM_FLOOR for r in rows)

        def nfmse_rows(kind):
            rows = _read_csv(os.path.join(nfmse_dir, f"nfmse_{kind}.csv"))
            values = [float(r["value"]) for r in rows]
            return len(values) == PAIRS * c["triplets"] and all(
                math.isfinite(v) and v >= 0.0 for v in values
            )

        def report_support():
            rows = _read_csv(os.path.join(p.run_dir("clf"), "clf_report.csv"))
            per_class = sum(int(r["support"]) for r in rows
                            if r["class"] not in ("accuracy", "weighted avg"))
            return per_class == _clf_split(c)[2]

        return [
            ("density SSIM mean >= 0.999 per pair", ssim_floor),
            ("mcae NFMSE rows finite and >= 0", lambda: nfmse_rows("mcae")),
            ("stanosa NFMSE rows finite and >= 0", lambda: nfmse_rows("stanosa")),
            ("classification support sums to the test size", report_support),
        ]

    def quality_loss(self, p):
        # one term per stage: the baseline's mean NFMSE over the pairs
        # (featurisation, GCN/ZCA), the classifier head's last-epoch training
        # loss (conv head) and 1 - mean density SSIM (HSD tables).  The
        # briefly trained MCAE's NFMSE is left out: it ranges over a factor
        # of two from seed to seed, and its featurisation code is the
        # baseline's.
        with open(os.path.join(p.run_dir("nfmse"), "nfmse_summary.json")) as fh:
            pairs = json.load(fh)["models"]["stanosa"]
        nfmse = [pair["mean"] for pair in pairs.values()]
        clf = _read_csv(os.path.join(p.run_dir("clf"), "clf_loss.csv"))
        ssim = _read_csv(os.path.join(p.run_dir("hsd"), "density_ssim.csv"))
        return (sum(nfmse) / len(nfmse) + float(clf[-1]["loss"])
                + 1.0 - sum(float(r["mean"]) for r in ssim) / len(ssim))

    def expected_calls(self):
        c = self.c
        epochs = c["setup_epochs"]
        return (_synth_counts(c) + _train_mcae_counts(c, epochs)
                + _train_stanosa_counts(c, epochs) + _eval_nfmse_counts(c)
                + _eval_hsd_counts(c) + _train_clf_counts(c) + _eval_clf_counts(c))


class ToyGan(Workload):
    name = "toy-gan"

    def _gan(self, epochs, out):
        c = self.c
        return self._cmd("train-cyclegan-toy", "--epochs", epochs, "--patches", c["patches"],
                         "--batch", c["batch"], "--out-dir", out)

    def setup_commands(self, p):
        # warm-up: the subcommand makes its own inputs from the seed
        return [self._gan(self.c["warmup_epochs"], p.setup_dir("gan"))]

    def pass_commands(self, p):
        return [self._gan(self.c["epochs"], p.run_dir("gan"))]

    def _epoch_cycle(self, p):
        rows = _read_csv(os.path.join(p.run_dir("gan"), "cyclegan_history.csv"))
        per_epoch = {}
        for row in rows:
            per_epoch.setdefault(int(row["epoch"]), []).append(float(row["l_cycle"]))
        return rows, [sum(v) / len(v) for _, v in sorted(per_epoch.items())]

    def checks(self, p):
        c = self.c

        def shrinks():
            rows, cycle = self._epoch_cycle(p)
            steps = c["epochs"] * (c["patches"] // c["batch"])
            return len(rows) == steps and cycle[-1] < CYCLE_SHRINK * cycle[0]

        return [("last-epoch cycle L1 below half the first", shrinks)]

    def quality_loss(self, p):
        return self._epoch_cycle(p)[1][-1]

    def expected_calls(self):
        c = self.c
        return _cyclegan_counts(c, c["warmup_epochs"]) + _cyclegan_counts(c, c["epochs"])


WORKLOADS = {w.name: w for w in (DeskTrain, DeskEval, ToyGan)}
