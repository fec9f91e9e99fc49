"""End-to-end pipeline driver with reproducible configuration.

Every subcommand reads an optional JSON config file plus flag overrides
(flags win), derives its randomness from one root seed via named
sub-streams, writes its declared CSV/JSON/PPM outputs into --out-dir, and
drops a run_manifest.json recording the resolved settings, seed, package
versions, produced files, and wall time.  Exit codes: 0 success, 1 runtime
failure, 2 usage/config error; failures emit a JSON error record on stderr.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__, classifier, cyclegan, dataset, mcae, metrics, persist
from . import gradcheck, stanosa
from .numerics import derive_seed, mlp_forward
from .persist import UsageError


@dataclass(frozen=True)
class Setting:
    """One config key and its flag.  A None default is left to the command (the first
    domain of the dataset or model)."""

    kind: object  # int, float, str, or a tuple of allowed strings
    default: object
    bound: str = ""  # a key of persist.BOUNDS


#: every config key, as ``block.key`` (``seed`` is the one top-level key)
SETTINGS = {
    "seed": Setting(int, 0),
    "synth.triplets": Setting(int, 200, ">= 1"),
    "synth.size": Setting(int, 32, ">= 8 and a multiple of 8"),
    "mcae.epochs": Setting(int, mcae.McaeTrainConfig.epochs, ">= 0"),
    "mcae.lr": Setting(float, mcae.McaeTrainConfig.lr, "> 0"),
    "mcae.batch": Setting(int, mcae.McaeTrainConfig.batch, ">= 1"),
    "mcae.stride": Setting(int, 4, ">= 1"),
    "mcae.k": Setting(int, mcae.McaeTrainConfig.k, ">= 1"),
    "mcae.kmeans_sample": Setting(int, mcae.McaeTrainConfig.kmeans_sample, ">= 1"),
    "stanosa.epochs": Setting(int, stanosa.StanosaTrainConfig.epochs, ">= 0"),
    "stanosa.lr": Setting(float, stanosa.StanosaTrainConfig.lr, "> 0"),
    "stanosa.batch": Setting(int, stanosa.StanosaTrainConfig.batch, ">= 1"),
    "stanosa.stride": Setting(int, 8, ">= 1"),
    "stanosa.domain": Setting(str, None),
    "nfmse.split": Setting(("train", "test", "all"), "test"),
    "hsd.pixels": Setting(int, 2000, ">= 1"),
    "classifier.epochs": Setting(int, classifier.ClassifierTrainConfig.epochs, ">= 0"),
    "classifier.lr": Setting(float, classifier.ClassifierTrainConfig.lr, "> 0"),
    "classifier.batch": Setting(int, classifier.ClassifierTrainConfig.batch, ">= 1"),
    "classifier.per_class": Setting(int, 60, ">= 1"),
    "classifier.domain": Setting(str, None),
    "cyclegan.epochs": Setting(int, cyclegan.CycleGanConfig.epochs, ">= 0"),
    "cyclegan.batch": Setting(int, cyclegan.CycleGanConfig.batch, ">= 1"),
    "cyclegan.patches": Setting(int, 256, ">= 1"),
}
_BLOCKS = {name.partition(".")[0] for name in SETTINGS if "." in name}


def flag(name):
    """The command-line flag of a setting."""
    return "--" + name.rpartition(".")[2].replace("_", "-")


def describe(name):
    """What a setting accepts, e.g. ``an integer >= 1``."""
    return persist.describe(SETTINGS[name].kind, SETTINGS[name].bound)


def _checked(name, value):
    """The value as the setting's type, or a UsageError naming the key and its flag."""
    setting = SETTINGS[name]
    return persist.checked(value, setting.kind, f"{name} ({flag(name)})", setting.bound)


def load_config(path):
    """Load a JSON config as ``{block.key: value}``, each key known and each value checked."""
    flat = {}
    for key, value in persist.read_json_object(path, "config file").items():
        if key in _BLOCKS:
            block = persist.checked(value, dict, f"config block {key!r}")
            flat.update((f"{key}.{sub}", sub_value) for sub, sub_value in block.items())
        elif key in SETTINGS and "." not in key:
            flat[key] = value
        else:
            raise UsageError(f"unknown config key {key!r}")
    for name, value in flat.items():
        if name not in SETTINGS:
            raise UsageError(f"unknown config key {name!r}")
        flat[name] = _checked(name, value)
    return flat


def resolve(command, args, config):
    """Each setting the command reads, checked: its flag, else the config file, else the
    default, as ``{"seed": ..., block: {key: value}}``, the shape of a config file."""
    spec = COMMANDS[command]
    values = {}
    for name in ("seed", *spec.settings):
        key = name.rpartition(".")[2]
        value = getattr(args, key, None)
        if value is None:
            value = config.get(name, SETTINGS[name].default)
        if value is not None:
            values[key] = _checked(name, value)
    seed = values.pop("seed")
    return {"seed": seed, spec.block: values} if spec.block else {"seed": seed}


def _trainer_config(config_class, values, seed):
    """A trainer config whose fields, but the seed, are read from a block's settings."""
    names = [f.name for f in fields(config_class) if f.name != "seed"]
    return config_class(seed=seed, **{name: values[name] for name in names})


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


def _extractors(path, domains, what):
    """Read a model file: its kind, and its feature extractor for each of ``domains``.

    A None domain is an MCAE's first.  The baseline's one encoder serves every
    domain; an MCAE that lacks one of ``domains`` is a UsageError naming
    ``what``, the file and both domain lists.  An encoder that does not take
    one 8x8 RGB patch (192 inputs) is a UsageError naming the file.
    """
    kind, model = persist.read_model(path, _MODEL_BUILDERS)
    if kind == "stanosa":
        extractors = dict.fromkeys(domains, stanosa.feature_extractor(model))
    else:
        domains = [model.domain_ids[0] if d is None else d for d in domains]
        if not set(domains) <= set(model.domain_ids):
            raise UsageError(f"{what} must be among the domains {model.domain_ids} of the "
                             f"model {path}, got {domains}")
        extractors = {d: mcae.feature_extractor(model, d) for d in domains}
    n_in = next(iter(extractors.values())).layers[0].n_in
    if n_in != 192:
        raise UsageError(f"the encoder of the model {path} takes {n_in} inputs, not the 192 "
                         "of an 8x8 RGB patch")
    return kind, extractors


def _train_split(ds, root_seed):
    return dataset.split(ds, derive_seed(root_seed, "split"))


# --- subcommands: each takes (args, its block's settings, out_dir, seed) ---


def cmd_synth(args, s, out_dir, seed):
    synth_seed = derive_seed(seed, "synth")
    base = dataset.generate_base_images(s["triplets"], s["size"], seed=synth_seed)
    ds = dataset.synth_triplets(base, dataset.PERTURBATIONS, seed=synth_seed)
    return dataset.save_dataset(ds, out_dir)


def cmd_train_mcae(args, s, out_dir, seed):
    if s["kmeans_sample"] < s["k"]:
        raise UsageError(
            f"mcae.kmeans_sample (--kmeans-sample) must be at least mcae.k (--k), "
            f"got {s['kmeans_sample']} < {s['k']}"
        )
    ds = dataset.load_dataset(args.dataset)
    if len(ds.domain_ids) < 2:
        raise UsageError(f"dataset {args.dataset} has the one domain {ds.domain_ids}: "
                         "the MCAE needs at least two")
    domains = ds.domain_ids
    train = _train_split(ds, seed)[0]
    store = dataset.patch_store(train, domains, s["stride"])
    del ds, train  # the trainer reads only the patch bytes: let the images go before training
    _, n_train, per_triplet, _ = store.shape
    if n_train * per_triplet < s["k"]:
        raise UsageError(
            f"mcae.k (--k) must be at most {n_train * per_triplet}, the number of sub-patches "
            f"in the train split ({n_train} triplet(s) at stride {s['stride']}), got {s['k']}"
        )
    train_config = _trainer_config(mcae.McaeTrainConfig, s, derive_seed(seed, "mcae"))
    model = mcae.mcae_init(domains, seed=derive_seed(seed, "mcae"))
    model, log = mcae.train_mcae(model, store, train_config)
    mcae.save_mcae(model, os.path.join(out_dir, "mcae_model.json"))
    persist.write_csv(os.path.join(out_dir, "mcae_loss.csv"),
                      *_loss_table(log, ["reconstruction", "feature", "cluster", "total"]))
    return ["mcae_model.json", "mcae_loss.csv"]


def cmd_train_stanosa(args, s, out_dir, seed):
    ds = dataset.load_dataset(args.dataset)
    domain = s.setdefault("domain", ds.domain_ids[0])
    if domain not in ds.domain_ids:
        raise UsageError(f"stanosa.domain (--domain) must be one of the dataset domains "
                         f"{ds.domain_ids}, got {domain!r}")
    train = _train_split(ds, seed)[0]
    patches = dataset.patch_store(train, [domain], s["stride"]).reshape(-1, 192)
    del ds, train  # the trainer reads only the patch bytes: let the images go before training
    train_config = _trainer_config(stanosa.StanosaTrainConfig, s, derive_seed(seed, "stanosa"))
    model = stanosa.stanosa_init(seed=derive_seed(seed, "stanosa"))
    model, log = stanosa.train_stanosa(model, patches, train_config)
    stanosa.save_stanosa(model, os.path.join(out_dir, "stanosa_model.json"))
    persist.write_csv(os.path.join(out_dir, "stanosa_loss.csv"),
                      *_loss_table(log, ["reconstruction", "total"]))
    return ["stanosa_model.json", "stanosa_loss.csv"]


def cmd_eval_nfmse(args, s, out_dir, seed):
    ds = dataset.load_dataset(args.dataset)
    if not args.model:
        raise UsageError("at least one --model is required")
    if s["split"] == "all":
        part = ds
    else:
        train, test = _train_split(ds, seed)
        part = train if s["split"] == "train" else test
    if not len(part):  # the 80/20 split leaves no test triplet in a set of 1 or 2
        raise UsageError(f"nfmse.split (--split) {s['split']!r} of the dataset {args.dataset} "
                         f"is empty: the dataset has {len(ds)} triplet(s)")
    models = {}
    for path in args.model:
        kind, extractors = _extractors(path, ds.domain_ids, "the dataset domains")
        if kind in models:
            raise UsageError(f"--model {path} is a second {kind} model after "
                             f"{models[kind][0]}: give one model of each kind")
        models[kind] = path, extractors
    outputs = []
    summary = {"split": s["split"], "triplets": len(part), "models": {}}
    for kind, (path, extractors) in models.items():
        rows, stats = metrics.nfmse_per_triplet(extractors, part)
        name = f"nfmse_{kind}.csv"
        persist.write_csv(os.path.join(out_dir, name), ["triplet_id", "pair", "value"], rows)
        outputs.append(name)
        summary["models"][kind] = stats
    persist.write_json(os.path.join(out_dir, "nfmse_summary.json"), summary)
    outputs.append("nfmse_summary.json")
    return outputs


def cmd_eval_hsd(args, s, out_dir, seed):
    ds = dataset.load_dataset(args.dataset)
    rows = []
    for domain in ds.domain_ids:
        images = [t[domain] for t in ds.triplets]
        sample, _ = metrics.cxcy_sample(
            images, s["pixels"], derive_seed(seed, f"cxcy-{domain}"), domain
        )
        rows.extend(sample)
    persist.write_csv(os.path.join(out_dir, "cxcy_samples.csv"), ["c_x", "c_y", "domain"],
                      rows)
    table = [[row["pair"], row["mean"], row["std"]] for row in metrics.density_ssim_table(ds)]
    persist.write_csv(os.path.join(out_dir, "density_ssim.csv"), ["pair", "mean", "std"],
                      table)
    return ["cxcy_samples.csv", "density_ssim.csv"]


def _labeled_data(args, s, seed):
    if args.labeled_dir:
        return classifier.load_labeled_set(args.labeled_dir)
    return classifier.generate_labeled_set(s["per_class"], seed=derive_seed(seed, "labeled"))


def _classifier_extractor(args, s):
    """The extractor of ``classifier.domain``, by default the MCAE's first domain, which
    then goes into the settings the run manifest records."""
    kind, extractors = _extractors(args.model, [s.get("domain")], "classifier.domain (--domain)")
    [(domain, extractor)] = extractors.items()
    if kind == "mcae":
        s["domain"] = domain
    return extractor


def cmd_train_clf(args, s, out_dir, seed):
    extractor = _classifier_extractor(args, s)
    data = _labeled_data(args, s, seed)
    train, val, _ = classifier.split_labeled(data, seed=derive_seed(seed, "clf-split"))
    train_config = _trainer_config(classifier.ClassifierTrainConfig, s, derive_seed(seed, "clf"))
    head = classifier.head_init(len(data.class_names), seed=derive_seed(seed, "clf"),
                                in_channels=extractor.feature_dim)
    head, log = classifier.train_classifier(extractor, head, train, val, train_config)
    classifier.save_head(head, os.path.join(out_dir, "clf_head.json"))
    # with no validation split the val_accuracy cells stay empty
    persist.write_csv(os.path.join(out_dir, "clf_loss.csv"),
                      *_loss_table(log, ["loss", "val_accuracy"]))
    return ["clf_head.json", "clf_loss.csv"]


def cmd_eval_clf(args, s, out_dir, seed):
    extractor = _classifier_extractor(args, s)
    head = classifier.load_head(args.head)
    if head.conv1.n_in != 9 * extractor.feature_dim:
        raise UsageError(f"head {args.head} does not take {extractor.feature_dim} features")
    data = _labeled_data(args, s, seed)
    if head.n_classes != len(data.class_names):
        raise UsageError(f"head {args.head} predicts {head.n_classes} classes, the labelled "
                         f"set has {len(data.class_names)}")
    _, _, test = classifier.split_labeled(data, seed=derive_seed(seed, "clf-split"))
    if not len(test):  # 75/5/20 leaves none of 1 or 2 items; a generated set has 3 or more
        raise UsageError(f"the test split of the labelled set "
                         f"{os.path.join(args.labeled_dir, 'labels.json')} is empty: the set "
                         f"has {len(data)} item(s)")
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


def cmd_train_cyclegan_toy(args, s, out_dir, seed):
    domain_a, domain_b = _toy_colour_domains(s["patches"], derive_seed(seed, "cyclegan-data"))
    gan_config = _trainer_config(cyclegan.CycleGanConfig, s, derive_seed(seed, "cyclegan"))
    f, g, d_a, d_b, history = cyclegan.train_cyclegan(domain_a, domain_b, gan_config)
    columns = [
        "epoch", "batch", "l_identity", "l_gan_f", "l_gan_g", "l_cycle",
        "l_total_gen", "l_disc_a", "l_disc_b",
    ]
    persist.write_csv(os.path.join(out_dir, "cyclegan_history.csv"), columns,
                      [[row[c] for c in columns] for row in history])

    def mean_colour(patches):
        return patches.reshape(-1, 16, 3).mean((0, 1)).tolist()

    summary = {
        "mean_colour_a": mean_colour(domain_a),
        "mean_colour_b": mean_colour(domain_b),
        "mean_colour_f_of_a": mean_colour(mlp_forward(f, domain_a)),
    }
    persist.write_json(os.path.join(out_dir, "cyclegan_summary.json"), summary)
    return ["cyclegan_history.csv", "cyclegan_summary.json"]


def cmd_grad_check(args, s, out_dir, seed):
    results = gradcheck.run_grad_checks(seed=derive_seed(seed, "grad-check"))
    rows = [[name, err, 1e-4, "pass" if err < 1e-4 else "FAIL"] for name, err in results]
    persist.write_csv(os.path.join(out_dir, "grad_check.csv"),
                      ["check", "max_relative_error", "tolerance", "status"], rows)
    for name, err in results:
        print(f"{name}: max relative error {err:.3e}")
    if any(err >= 1e-4 for _, err in results):
        raise RuntimeError("gradient check failed; see grad_check.csv")
    return ["grad_check.csv"]


@dataclass(frozen=True)
class Command:
    """A subcommand: its function, help, the settings it reads and its path flags."""

    run: object
    help: str
    block: str = None  # the config block it reads
    keys: tuple = None  # the keys of that block it reads; default all
    inputs: dict = field(default_factory=dict)  # path flag -> argparse keywords

    @property
    def settings(self):
        names = [n for n in SETTINGS if n.startswith(f"{self.block}.")]
        return [n for n in names if self.keys is None or n.rpartition(".")[2] in self.keys]


_DATASET = {"--dataset": {"required": True}}
_LABELED = {"--model": {"required": True}, "--labeled-dir": {}}

COMMANDS = {
    "synth": Command(cmd_synth, "generate a synthetic triplet dataset", "synth"),
    "train-mcae": Command(cmd_train_mcae, "train the multi-channel auto-encoder", "mcae",
                          inputs=_DATASET),
    "train-stanosa": Command(cmd_train_stanosa, "train the single-domain baseline", "stanosa",
                             inputs=_DATASET),
    "eval-nfmse": Command(cmd_eval_nfmse, "per-triplet normalised feature MSE", "nfmse",
                          inputs={**_DATASET, "--model": {"action": "append",
                                                          "help": "model JSON (repeatable)"}}),
    "eval-hsd": Command(cmd_eval_hsd, "chroma scatter and density SSIM tables", "hsd",
                        inputs=_DATASET),
    "train-clf": Command(cmd_train_clf, "train a classifier head on frozen features",
                         "classifier", inputs=_LABELED),
    "eval-clf": Command(cmd_eval_clf, "classification report on the test split", "classifier",
                        keys=("per_class", "domain"),
                        inputs={**_LABELED, "--head": {"required": True}}),
    "train-cyclegan-toy": Command(cmd_train_cyclegan_toy, "toy adversarial stain transfer",
                                  "cyclegan"),
    "grad-check": Command(cmd_grad_check, "finite-difference gradient audit"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="staininv",
        description="Multi-domain stain-invariant representation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        p = sub.add_parser(command, help=spec.help)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out-dir", required=True, help="output directory")
        for path_flag, options in spec.inputs.items():
            p.add_argument(path_flag, **options)
        for name in ("seed", *spec.settings):
            kind, default = SETTINGS[name].kind, SETTINGS[name].default
            typing = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(flag(name), **typing, help=f"{name}: {describe(name)}, default "
                           f"{'the first domain' if default is None else default}")
    return parser


def _error_record(exc):
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                      sort_keys=True)


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        config = load_config(args.config) if args.config else {}
        settings = resolve(args.command, args, config)
        spec = COMMANDS[args.command]
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except (OSError, ValueError) as exc:  # a ValueError for a name with a NUL
            raise UsageError(f"--out-dir {args.out_dir} cannot be made a directory: "
                             f"{getattr(exc, 'strerror', exc)}") from None
        outputs = spec.run(args, settings.get(spec.block, {}), args.out_dir, settings["seed"])
    except Exception as exc:  # noqa: BLE001 - report and signal failure
        print(_error_record(exc), file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    manifest = {
        "command": args.command,
        "config": settings,
        "seed": settings["seed"],
        "outputs": sorted(outputs),
        "duration_s": round(time.time() - started, 3),
        "versions": {
            "staininv": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    persist.write_json(os.path.join(args.out_dir, "run_manifest.json"), manifest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
