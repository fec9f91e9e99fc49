"""End-to-end pipeline driver with reproducible configuration.

Every subcommand reads an optional JSON config file plus flag overrides
(flags win), derives its randomness from one root seed via named
sub-streams, writes its declared CSV/JSON/PPM outputs into --out-dir, and
drops a run_manifest.json recording the effective config, seed, package
versions, produced files, and wall time.  Exit codes: 0 success, 1 runtime
failure, 2 usage/config error; failures emit a JSON error record on stderr.
"""

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__, classifier, cyclegan, dataset, mcae, metrics, persist
from . import stanosa
from .numerics import derive_seed


class UsageError(ValueError):
    pass


DEFAULT_PERTURBATIONS = {
    "B": {"rotation": 0.55, "scale": [1.08, 0.92], "offset": [0.03, 0.02],
          "density_gain": 1.0},
    "C": {"rotation": -0.5, "scale": [0.93, 1.07], "offset": [-0.02, 0.04],
          "density_gain": 1.0},
}

CONFIG_SCHEMA = {
    "seed": None,
    "synth": {"triplets", "size", "perturbations"},
    "mcae": {"epochs", "lr", "batch", "stride", "k", "kmeans_sample",
             "train_fraction"},
    "stanosa": {"epochs", "lr", "batch", "stride", "zca_sample", "domain",
                "train_fraction"},
    "nfmse": {"train_fraction", "split"},
    "hsd": {"pixels"},
    "classifier": {"epochs", "lr", "batch", "per_class", "size", "domain",
                   "pooling"},
    "cyclegan": {"epochs", "batch", "lr", "lambda1", "lambda2", "patches",
                 "saturating"},
}


def load_config(path):
    """Load and validate a JSON config; unknown keys are rejected."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError("config root must be a JSON object")
    for key, value in config.items():
        if key not in CONFIG_SCHEMA:
            raise UsageError(f"unknown config key {key!r}")
        allowed = CONFIG_SCHEMA[key]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise UsageError(f"config block {key!r} must be an object")
        for sub in value:
            if sub not in allowed:
                raise UsageError(f"unknown config key {key}.{sub}")
    return config


def _setting(args, config, block, name, default):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    return config.get(block, {}).get(name, default)


def _count_setting(args, config, block, name, default):
    """An integer setting that must be at least 1, checked before any work."""
    value = _setting(args, config, block, name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        flag = "--" + name.replace("_", "-")
        raise UsageError(
            f"{block}.{name} ({flag}) must be an integer >= 1, got {value!r}"
        )
    return value


def _loss_table(log, columns):
    """Header and one row per epoch; a column the log entry lacks stays empty."""
    rows = [
        [entry["epoch"], *(entry.get(c, entry.get("losses", {}).get(c, "")) for c in columns)]
        for entry in log
    ]
    return ["epoch", *columns], rows


_MODEL_BUILDERS = {
    "mcae-v1": lambda doc: ("mcae", mcae.mcae_from_doc(doc)),
    "stanosa-v1": lambda doc: ("stanosa", stanosa.stanosa_from_doc(doc)),
}


@contextmanager
def _model_file_is_usage_error():
    """Report a missing, unparsable or malformed model file as a usage error."""
    try:
        yield
    except persist.ModelFileError as exc:
        raise UsageError(str(exc)) from None


def _load_any_model(path):
    with _model_file_is_usage_error():
        return persist.read_model(path, _MODEL_BUILDERS)


def _extractors_for(path, domains):
    kind, model = _load_any_model(path)
    if kind == "mcae":
        return kind, {d: mcae.feature_extractor(model, d) for d in domains}
    ext = stanosa.feature_extractor(model)
    return kind, {d: ext for d in domains}


def _require_dataset(path):
    if path is None:
        raise UsageError("--dataset is required")
    if not os.path.isdir(path) or not os.path.exists(os.path.join(path, "manifest.json")):
        raise UsageError(f"dataset directory not found: {path}")
    try:
        return dataset.load_dataset(path)
    except dataset.DatasetError as exc:
        raise UsageError(str(exc)) from None


def _train_split(ds, fraction, root_seed):
    return dataset.split(ds, fraction, derive_seed(root_seed, "split"))


# --- subcommands ---


def cmd_synth(args, config, out_dir, seed):
    n = int(_setting(args, config, "synth", "triplets", 200))
    size = int(_setting(args, config, "synth", "size", 32))
    pert_cfg = config.get("synth", {}).get("perturbations", DEFAULT_PERTURBATIONS)
    perts = {d: dataset.StainPerturbation.from_dict(p) for d, p in pert_cfg.items()}
    synth_seed = derive_seed(seed, "synth")
    base = dataset.generate_base_images(n, size, seed=synth_seed)
    ds = dataset.synth_triplets(base, perts, seed=synth_seed)
    dataset.save_dataset(ds, out_dir)
    names = [
        f"triplet_{i:05d}_{d}.ppm" for i in range(len(ds)) for d in ds.domain_ids
    ]
    return ["manifest.json", *names]


def cmd_train_mcae(args, config, out_dir, seed):
    k = _count_setting(args, config, "mcae", "k", 10)
    kmeans_sample = _count_setting(args, config, "mcae", "kmeans_sample", 10000)
    if kmeans_sample < k:
        raise UsageError(
            f"mcae.kmeans_sample (--kmeans-sample) must be at least mcae.k (--k), "
            f"got {kmeans_sample} < {k}"
        )
    ds = _require_dataset(args.dataset)
    fraction = float(_setting(args, config, "mcae", "train_fraction", 0.8))
    train, _ = _train_split(ds, fraction, seed)
    train_config = mcae.McaeTrainConfig(
        epochs=int(_setting(args, config, "mcae", "epochs", 300)),
        lr=float(_setting(args, config, "mcae", "lr", 0.0002)),
        batch=int(_setting(args, config, "mcae", "batch", 64)),
        stride=int(_setting(args, config, "mcae", "stride", 4)),
        k=k,
        kmeans_sample=kmeans_sample,
        seed=derive_seed(seed, "mcae"),
    )
    model = mcae.mcae_init(ds.domain_ids, seed=derive_seed(seed, "mcae"))
    model, log = mcae.train_mcae(model, train, train_config)
    mcae.save_mcae(model, os.path.join(out_dir, "mcae_model.json"))
    persist.write_csv(os.path.join(out_dir, "mcae_loss.csv"),
                      *_loss_table(log, ["reconstruction", "feature", "cluster", "total"]))
    return ["mcae_model.json", "mcae_loss.csv"]


def cmd_train_stanosa(args, config, out_dir, seed):
    ds = _require_dataset(args.dataset)
    fraction = float(_setting(args, config, "stanosa", "train_fraction", 0.8))
    domain = _setting(args, config, "stanosa", "domain", ds.domain_ids[0])
    if domain not in ds.domain_ids:
        raise UsageError(f"domain {domain!r} not in dataset domains {ds.domain_ids}")
    stride = int(_setting(args, config, "stanosa", "stride", 8))
    train, _ = _train_split(ds, fraction, seed)
    patches = np.concatenate(
        [dataset.extract_patches(t[domain], 8, stride) for t in train.triplets]
    )
    train_config = stanosa.StanosaTrainConfig(
        epochs=int(_setting(args, config, "stanosa", "epochs", 300)),
        lr=float(_setting(args, config, "stanosa", "lr", 0.0002)),
        batch=int(_setting(args, config, "stanosa", "batch", 256)),
        zca_sample=int(_setting(args, config, "stanosa", "zca_sample", 100000)),
        seed=derive_seed(seed, "stanosa"),
    )
    model = stanosa.stanosa_init(seed=derive_seed(seed, "stanosa"))
    model, log = stanosa.train_stanosa(model, patches, train_config)
    stanosa.save_stanosa(model, os.path.join(out_dir, "stanosa_model.json"))
    persist.write_csv(os.path.join(out_dir, "stanosa_loss.csv"),
                      *_loss_table(log, ["reconstruction", "total"]))
    return ["stanosa_model.json", "stanosa_loss.csv"]


def cmd_eval_nfmse(args, config, out_dir, seed):
    ds = _require_dataset(args.dataset)
    if not args.model:
        raise UsageError("at least one --model is required")
    fraction = float(_setting(args, config, "nfmse", "train_fraction", 0.8))
    which = _setting(args, config, "nfmse", "split", "test")
    if which not in ("train", "test", "all"):
        raise UsageError("split must be train, test, or all")
    if which == "all":
        part = ds
    else:
        train, test = _train_split(ds, fraction, seed)
        part = train if which == "train" else test
    outputs = []
    summary = {"split": which, "triplets": len(part), "models": {}}
    for path in args.model:
        kind, extractors = _extractors_for(path, ds.domain_ids)
        rows, stats = metrics.nfmse_per_triplet(extractors, part)
        name = f"nfmse_{kind}.csv"
        persist.write_csv(os.path.join(out_dir, name), ["triplet_id", "pair", "value"], rows)
        outputs.append(name)
        summary["models"][kind] = stats
    persist.write_json(os.path.join(out_dir, "nfmse_summary.json"), summary)
    outputs.append("nfmse_summary.json")
    return outputs


def cmd_eval_hsd(args, config, out_dir, seed):
    pixels = _count_setting(args, config, "hsd", "pixels", 2000)
    ds = _require_dataset(args.dataset)
    rows = []
    for domain in ds.domain_ids:
        images = [t[domain] for t in ds.triplets]
        sample, _ = metrics.cxcy_sample(
            images, pixels, derive_seed(seed, f"cxcy-{domain}"), domain
        )
        rows.extend(sample)
    persist.write_csv(os.path.join(out_dir, "cxcy_samples.csv"), ["c_x", "c_y", "domain"],
                      rows)
    table = [[row["pair"], row["mean"], row["std"]] for row in metrics.density_ssim_table(ds)]
    persist.write_csv(os.path.join(out_dir, "density_ssim.csv"), ["pair", "mean", "std"],
                      table)
    return ["cxcy_samples.csv", "density_ssim.csv"]


def _labeled_data(args, config, seed):
    if getattr(args, "labeled_dir", None):
        return classifier.load_labeled_set(args.labeled_dir)
    per_class = int(_setting(args, config, "classifier", "per_class", 60))
    size = int(_setting(args, config, "classifier", "size", 32))
    return classifier.generate_labeled_set(
        per_class, size=size, seed=derive_seed(seed, "labeled")
    )


def _classifier_extractor(args, config):
    if args.model is None:
        raise UsageError("--model is required")
    kind, model = _load_any_model(args.model)
    if kind == "mcae":
        domain = _setting(args, config, "classifier", "domain", model.domain_ids[0])
        if domain not in model.domain_ids:
            raise UsageError(f"domain {domain!r} not in model domains")
        return mcae.feature_extractor(model, domain)
    return stanosa.feature_extractor(model)


def cmd_train_clf(args, config, out_dir, seed):
    extractor = _classifier_extractor(args, config)
    data = _labeled_data(args, config, seed)
    train, val, _ = classifier.split_labeled(
        data, seed=derive_seed(seed, "clf-split")
    )
    train_config = classifier.ClassifierTrainConfig(
        epochs=int(_setting(args, config, "classifier", "epochs", 100)),
        lr=float(_setting(args, config, "classifier", "lr", 0.0002)),
        batch=int(_setting(args, config, "classifier", "batch", 32)),
        seed=derive_seed(seed, "clf"),
    )
    head = classifier.head_init(
        len(data.class_names),
        seed=derive_seed(seed, "clf"),
        in_channels=extractor.feature_dim,
        pooling=_setting(args, config, "classifier", "pooling", "avg"),
    )
    head, log = classifier.train_classifier(extractor, head, train, val, train_config)
    classifier.save_head(head, os.path.join(out_dir, "clf_head.json"))
    # with no validation split the val_accuracy cells stay empty
    persist.write_csv(os.path.join(out_dir, "clf_loss.csv"),
                      *_loss_table(log, ["loss", "val_accuracy"]))
    return ["clf_head.json", "clf_loss.csv"]


def cmd_eval_clf(args, config, out_dir, seed):
    extractor = _classifier_extractor(args, config)
    if args.head is None:
        raise UsageError("--head is required")
    with _model_file_is_usage_error():
        head = classifier.load_head(args.head)
    if head.conv1.kernels.shape[1] != extractor.feature_dim:
        raise UsageError(f"head {args.head} does not take {extractor.feature_dim} features")
    data = _labeled_data(args, config, seed)
    _, _, test = classifier.split_labeled(data, seed=derive_seed(seed, "clf-split"))
    y_true, y_pred = classifier.evaluate_classifier(extractor, head, test)
    report = metrics.classification_report(y_true, y_pred, data.class_names)
    persist.write_csv(os.path.join(out_dir, "clf_report.csv"), *metrics.report_table(report))
    return ["clf_report.csv"]


def _toy_colour_domains(n, seed):
    """Reddish vs bluish 4x4 RGB patches in [0, 1], flattened to 48 dims."""
    rng = np.random.default_rng(seed)
    red = np.tile([0.70, 0.30, 0.30], 16)
    blue = np.tile([0.30, 0.30, 0.70], 16)
    a = np.clip(red + rng.normal(0.0, 0.08, size=(n, 48)), 0.0, 1.0)
    b = np.clip(blue + rng.normal(0.0, 0.08, size=(n, 48)), 0.0, 1.0)
    return a, b


def cmd_train_cyclegan_toy(args, config, out_dir, seed):
    n = int(_setting(args, config, "cyclegan", "patches", 256))
    domain_a, domain_b = _toy_colour_domains(n, derive_seed(seed, "cyclegan-data"))
    gan_config = cyclegan.CycleGanConfig(
        lambda1=float(_setting(args, config, "cyclegan", "lambda1", 5.0)),
        lambda2=float(_setting(args, config, "cyclegan", "lambda2", 10.0)),
        lr=float(_setting(args, config, "cyclegan", "lr", 0.0002)),
        epochs=int(_setting(args, config, "cyclegan", "epochs", 200)),
        batch=int(_setting(args, config, "cyclegan", "batch", 32)),
        seed=derive_seed(seed, "cyclegan"),
        saturating=bool(_setting(args, config, "cyclegan", "saturating", False)),
    )
    f, g, d_a, d_b, history = cyclegan.train_cyclegan(domain_a, domain_b, gan_config)
    columns = [
        "epoch", "batch", "l_identity", "l_gan_f", "l_gan_g", "l_cycle",
        "l_total_gen", "l_disc_a", "l_disc_b",
    ]
    persist.write_csv(os.path.join(out_dir, "cyclegan_history.csv"), columns,
                      [[row[c] for c in columns] for row in history])

    def mean_colour(patches):
        return persist.float_strings(patches.reshape(-1, 16, 3).mean((0, 1)))

    summary = {
        "mean_colour_a": mean_colour(domain_a),
        "mean_colour_b": mean_colour(domain_b),
        "mean_colour_f_of_a": mean_colour(cyclegan.generate(f, domain_a)),
    }
    persist.write_json(os.path.join(out_dir, "cyclegan_summary.json"), summary)
    return ["cyclegan_history.csv", "cyclegan_summary.json"]


def cmd_grad_check(args, config, out_dir, seed):
    from .gradcheck import run_grad_checks

    results = run_grad_checks(seed=derive_seed(seed, "grad-check"))
    rows = [[name, err, 1e-4, "pass" if err < 1e-4 else "FAIL"] for name, err in results]
    persist.write_csv(os.path.join(out_dir, "grad_check.csv"),
                      ["check", "max_relative_error", "tolerance", "status"], rows)
    for name, err in results:
        print(f"{name}: max relative error {err:.3e}")
    if any(err >= 1e-4 for _, err in results):
        raise RuntimeError("gradient check failed; see grad_check.csv")
    return ["grad_check.csv"]


COMMANDS = {
    "synth": cmd_synth,
    "train-mcae": cmd_train_mcae,
    "train-stanosa": cmd_train_stanosa,
    "eval-nfmse": cmd_eval_nfmse,
    "eval-hsd": cmd_eval_hsd,
    "train-clf": cmd_train_clf,
    "eval-clf": cmd_eval_clf,
    "train-cyclegan-toy": cmd_train_cyclegan_toy,
    "grad-check": cmd_grad_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="staininv",
        description="Multi-domain stain-invariant representation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, help="root seed (default 0)")
        p.add_argument("--out-dir", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic triplet dataset")
    common(p)
    p.add_argument("--triplets", type=int)
    p.add_argument("--size", type=int)

    p = sub.add_parser("train-mcae", help="train the multi-channel auto-encoder")
    common(p)
    p.add_argument("--dataset", required=True)
    for flag in ("--epochs", "--batch", "--stride", "--k", "--kmeans-sample"):
        p.add_argument(flag, type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--train-fraction", type=float)

    p = sub.add_parser("train-stanosa", help="train the single-domain baseline")
    common(p)
    p.add_argument("--dataset", required=True)
    for flag in ("--epochs", "--batch", "--stride", "--zca-sample"):
        p.add_argument(flag, type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--domain")

    p = sub.add_parser("eval-nfmse", help="per-triplet normalised feature MSE")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", action="append", help="model JSON (repeatable)")
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--split", choices=["train", "test", "all"])

    p = sub.add_parser("eval-hsd", help="chroma scatter and density SSIM tables")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--pixels", type=int)

    p = sub.add_parser("train-clf", help="train a classifier head on frozen features")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--labeled-dir")
    p.add_argument("--domain")
    p.add_argument("--pooling", choices=["avg", "max"])
    for flag in ("--epochs", "--batch", "--per-class", "--size"):
        p.add_argument(flag, type=int)
    p.add_argument("--lr", type=float)

    p = sub.add_parser("eval-clf", help="classification report on the test split")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--labeled-dir")
    p.add_argument("--domain")
    p.add_argument("--per-class", type=int)
    p.add_argument("--size", type=int)

    p = sub.add_parser("train-cyclegan-toy", help="toy adversarial stain transfer")
    common(p)
    for flag in ("--epochs", "--batch", "--patches"):
        p.add_argument(flag, type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    common(p)
    return parser


def _error_record(exc):
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc)}}, sort_keys=True
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        config = load_config(args.config) if args.config else {}
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        out_dir = args.out_dir
        os.makedirs(out_dir, exist_ok=True)
        outputs = COMMANDS[args.command](args, config, out_dir, seed)
    except UsageError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(_error_record(exc), file=sys.stderr)
        return 1
    manifest = {
        "command": args.command,
        "config": config,
        "seed": seed,
        "outputs": sorted(outputs),
        "duration_s": round(time.time() - started, 3),
        "versions": {
            "staininv": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    persist.write_json(os.path.join(out_dir, "run_manifest.json"), manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
