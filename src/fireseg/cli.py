"""Command-line pipeline: generate, prepare, train, evaluate, predict.

Configuration comes from a flat key=value file plus command-line flags
(flags win). Every output is written atomically, and all commands are
bitwise-reproducible from (inputs, config, seed) at --threads 1; to keep
that guarantee the BLAS thread pool is pinned before numpy loads.
"""

# must happen before the first numpy import anywhere in the process
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import Field, fields
from datetime import date
from pathlib import Path

from . import data as D
from . import formats as F
from . import synthetic as S
from . import training as T
from .metrics import format_scores

# a config key is named after the TrainConfig/SynthConfig field it sets, but
# for `tr`; deterministic_labels is settable from Python only
_KEY_FOR_FIELD = {"tile_ratio": "tr"}
_NOT_KEYS = {"deterministic_labels"}


def _field_keys(cls) -> dict[str, Field]:
    """Config key -> the field of dataclass cls that it sets."""
    return {_KEY_FOR_FIELD.get(f.name, f.name): f for f in fields(cls) if f.name not in _NOT_KEYS}


# every key a config file may define: the TrainConfig and SynthConfig fields
# (`days` counts train days only) plus the CLI's own; values are cast on use
KNOWN_KEYS = {"data_dir", "out_dir", "threads", "holdout_days"}
KNOWN_KEYS |= _field_keys(T.TrainConfig).keys() | _field_keys(S.SynthConfig).keys()


class CliError(Exception):
    pass


def parse_config_file(path: Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments allowed."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def resolve(args: argparse.Namespace) -> dict[str, str]:
    """defaults < config file < explicit flags."""
    merged: dict[str, str] = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    for key in KNOWN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = str(flag)
    return merged


def _get(cfg: dict, key: str, default):
    """cfg[key] cast to the type of default, or default when key is unset."""
    if key not in cfg:
        return default
    try:
        return type(default)(cfg[key])
    except ValueError as exc:
        raise CliError(f"config key {key}={cfg[key]!r}: {exc}") from exc


def _build(cls, cfg: dict, **fixed):
    """cls from its field defaults, overridden by cfg's keys, then by fixed."""
    values = {f.name: _get(cfg, key, f.default) for key, f in _field_keys(cls).items()}
    return cls(**{**values, **fixed})


def train_config(cfg: dict) -> T.TrainConfig:
    return _build(T.TrainConfig, cfg)


def _map_days(fn, items, threads: int):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _require_dir(path: Path, what: str) -> Path:
    if not path.is_dir():
        raise CliError(f"{what} directory {path} does not exist")
    return path


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise CliError(f"{what} {path} does not exist")
    return path


def _data_and_out(cfg: dict, data_default: str = ".") -> tuple[Path, Path]:
    """The data directory, which must exist, and the output directory
    (default: the data directory), made here if missing."""
    data = _require_dir(Path(cfg.get("data_dir", data_default)), "data")
    out = Path(cfg.get("out_dir", data))
    out.mkdir(parents=True, exist_ok=True)
    return data, out


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: dict) -> int:
    out = Path(cfg.get("out_dir", "."))
    n_train = _get(cfg, "days", S.SynthConfig.days)
    n_holdout = _get(cfg, "holdout_days", 10)
    if n_train < 1 or n_holdout < 1:
        raise CliError(f"need at least 1 train-val and 1 holdout day, got {n_train} and {n_holdout}")
    synth = _build(S.SynthConfig, cfg, days=n_train + n_holdout)
    days, schema, rule = S.generate_dataset(synth)
    raw = out / "raw"
    raw.mkdir(parents=True, exist_ok=True)
    names = [ch.name for ch in schema.channels]
    threads = _get(cfg, "threads", 1)
    _map_days(lambda day: F.write_day(raw, day, names), days, threads)
    F.write_schema(out / "schema.json", schema)
    F.write_rule(out / "rule.json", rule)
    train_ids = [day.day_id for day in days[:n_train]]
    holdout_ids = [day.day_id for day in days[n_train:]]
    F.write_splits(out / "splits.json", train_ids, holdout_ids)
    fire_px = sum(int((day.mask == D.FIRE).sum()) for day in days)
    print(
        f"generated {len(days)} days ({n_train} train-val, {n_holdout} holdout) "
        f"at {synth.height}x{synth.width}, {fire_px} fire pixels, into {raw}"
    )
    return 0


def _load_split_days(data: Path) -> tuple[list[D.GridDay], list[D.GridDay], D.FeatureSchema]:
    schema = F.read_schema(_require_file(data / "schema.json", "schema"))
    train_ids, holdout_ids = F.read_splits(_require_file(data / "splits.json", "splits file"))
    raw = _require_dir(data / "raw", "raw data")
    train = [F.read_day(raw, d)[0] for d in train_ids]
    holdout = [F.read_day(raw, d)[0] for d in holdout_ids]
    return train, holdout, schema


def cmd_prepare(cfg: dict) -> int:
    data, out = _data_and_out(cfg, cfg.get("out_dir", "."))
    train_days, holdout_days, schema = _load_split_days(data)
    threads = _get(cfg, "threads", 1)
    seed = _get(cfg, "seed", T.TrainConfig.seed)
    tr = _get(cfg, "tr", T.TrainConfig.tile_ratio)

    scaling = D.fit_scaling(train_days, schema)
    F.write_scaling(out / "scaling.json", scaling)

    prepared = out / "prepared"
    prepared.mkdir(parents=True, exist_ok=True)
    encoded_names = schema.encoded_names()

    def encode(day: D.GridDay) -> D.GridDay:
        enc, _ = D.one_hot_encode(D.apply_scaling(day, scaling), schema)
        F.write_day(prepared, enc, encoded_names)
        return enc

    train_enc = _map_days(encode, train_days, threads)
    _map_days(encode, holdout_days, threads)

    tiles: list[D.TileSpec] = []
    for day in train_enc:
        tiles.extend(D.extract_tiles(day))
    sampled = D.sample_tileset(tiles, tr, seed)
    F.write_manifest(out / "train_val_tiles.csv", sampled)
    holdout_set = D.holdout_tileset(holdout_days)
    F.write_manifest(out / "holdout_tiles.csv", holdout_set)
    print(
        f"prepared {len(train_enc)} train-val + {len(holdout_days)} holdout days; "
        f"sampled {len(sampled.specs)} tiles ({sampled.fire_count()} fire, tr={tr}), "
        f"holdout keeps {len(holdout_set.specs)} land tiles"
    )
    return 0


def _load_prepared_days(data: Path, ids: list[date]) -> dict[date, D.GridDay]:
    prepared = _require_dir(data / "prepared", "prepared data")
    return {d: F.read_day(prepared, d)[0] for d in ids}


def _load_manifest(data: Path, name: str, provenance: str) -> tuple[D.TileSet, dict[date, D.GridDay]]:
    """The manifest data/name, refused unless it carries provenance, and the
    prepared days it names, in day order."""
    path = _require_file(data / name, "manifest")
    tileset = F.read_manifest(path)
    if tileset.provenance != provenance:
        raise CliError(f"{path}: manifest carries {tileset.provenance} provenance, not {provenance}")
    day_ids = sorted({s.day_id for s in tileset.specs})
    return tileset, _load_prepared_days(data, day_ids)


def cmd_train(cfg: dict) -> int:
    data, out = _data_and_out(cfg)
    tileset, store = _load_manifest(data, "train_val_tiles.csv", D.SAMPLED)
    config = train_config(cfg)

    cv = T.cross_validate(tileset, store, config)

    def save_checkpoint(path: Path, r: T.FoldResult) -> None:
        metrics = {"fold": r.fold_index, "epoch": r.best.epoch,
                   **dict(zip(F.SCORE_COLUMNS, r.best.values()))}
        F.write_checkpoint(path, r.best.params, metrics)

    prefix = [config.tile_ratio, config.fire_buffer, config.buffer_radius,
              config.init_features, config.es_metric]
    rows = []
    for r in cv.folds:
        rows.append(F.metric_row(prefix + [r.fold_index, r.best.epoch], r.best.values()))
        save_checkpoint(out / f"fold_{r.fold_index}.unc", r)
        trace_rows = [[str(m.epoch), *map(repr, (m.train_loss, *m.values()))] for m in r.trace]
        F.write_csv(out / f"trace_fold_{r.fold_index}.csv",
                    ["epoch", "train_loss", *F.SCORE_COLUMNS], trace_rows)
    rows.append(F.metric_row(prefix + ["mean", "-"], cv.means))
    F.write_csv(out / "validation.csv", F.VALIDATION_COLUMNS, rows)

    best = max(cv.folds, key=lambda r: r.best.score(config.es_metric))
    save_checkpoint(out / "best.unc", best)
    for r in cv.folds:
        print(f"fold {r.fold_index}: epoch {r.best.epoch}/{r.stopped_epoch} "
              f"{format_scores(r.best.values())}")
    print(f"mean: {format_scores(cv.means)} (best fold {best.fold_index})")
    return 0


def cmd_evaluate(cfg: dict, checkpoint: Path) -> int:
    data, out = _data_and_out(cfg)
    params = F.read_checkpoint(_require_file(checkpoint, "checkpoint"))
    manifest, store = _load_manifest(data, "holdout_tiles.csv", D.HOLDOUT)
    days = list(store.values())
    # guard against stale prepare outputs: the manifest must be exactly the
    # land tiling of the holdout days
    if set(D.holdout_tileset(days).specs) != set(manifest.specs):
        raise CliError("holdout manifest does not match the prepared holdout days; re-run prepare")
    config = train_config(cfg)
    result = T.evaluate_holdout(params, days, config)
    days_run = f"{days[0].day_id.isoformat()}..{days[-1].day_id.isoformat()}"
    row = F.metric_row([checkpoint, days_run, result.tiles], result.values())
    row += [str(getattr(result.counts, c)) for c in F.COUNT_COLUMNS]
    F.write_csv(out / "holdout.csv", F.HOLDOUT_COLUMNS, [row])
    print(f"holdout: tiles={result.tiles} {format_scores(result.values())}")
    return 0


def cmd_predict(cfg: dict, checkpoint: Path, day_args: list[str], render: bool) -> int:
    data, out = _data_and_out(cfg)
    params = F.read_checkpoint(_require_file(checkpoint, "checkpoint"))
    try:
        day_ids = [date.fromisoformat(s) for s in day_args]
    except ValueError as exc:
        raise CliError(f"invalid day id: {exc}") from exc
    store = _load_prepared_days(data, day_ids)
    threshold = _get(cfg, "threshold", T.TrainConfig.threshold)
    threads = _get(cfg, "threads", 1)

    def predict_one(day_id: date) -> None:
        day = store[day_id]
        pred = T.predict_day(params, day, threshold)
        F.write_mask(out / f"pred_{day_id.isoformat()}.msk", pred)
        if render:
            F.write_ppm(out / f"render_{day_id.isoformat()}.ppm", F.render_panels(day.mask, pred))

    _map_days(predict_one, day_ids, threads)
    print(f"predicted {len(day_ids)} day(s) into {out}" + (" (rendered)" if render else ""))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fireseg",
        description="next-day fire prediction pipeline over tiled raster stacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--config", type=Path, help="key=value config file")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--threads", type=int, help="worker threads for per-day work (default 1)")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--data", dest="data_dir", help="dataset directory")

    g = sub.add_parser("generate", help="write a synthetic dataset")
    shared(g)
    g.add_argument("--days", type=int, help="train-validation day count")
    g.add_argument("--holdout-days", dest="holdout_days", type=int, help="holdout day count")
    g.add_argument("--height", type=int)
    g.add_argument("--width", type=int)
    g.add_argument("--numeric-channels", dest="numeric_channels", type=int)
    g.add_argument("--categories", type=int)
    g.add_argument("--target-fire-rate", dest="target_fire_rate", type=float)
    g.add_argument("--water-fraction", dest="water_fraction", type=float)

    p = sub.add_parser("prepare", help="normalize, encode, tile and sample")
    shared(p)
    p.add_argument("--tr", type=float, help="no-fire to fire tile ratio")

    t = sub.add_parser("train", help="k-fold cross-validated training")
    shared(t)
    t.add_argument("--tr", type=float)
    t.add_argument("--fire-buffer", dest="fire_buffer", choices=["off", "train", "train+val"])
    t.add_argument("--buffer-radius", dest="buffer_radius", type=int)
    t.add_argument("--init-features", dest="init_features", type=int)
    t.add_argument("--es-metric", dest="es_metric", choices=T.ES_METRICS)
    t.add_argument("--folds", type=int)
    t.add_argument("--patience", type=int)
    t.add_argument("--max-epochs", dest="max_epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--batch-size", dest="batch_size", type=int)

    e = sub.add_parser("evaluate", help="pixel metrics on the untouched holdout")
    shared(e)
    e.add_argument("checkpoint", type=Path)

    pr = sub.add_parser("predict", help="predict day masks, optionally rendered")
    shared(pr)
    pr.add_argument("checkpoint", type=Path)
    pr.add_argument("days", nargs="+", help="day ids (ISO dates)")
    pr.add_argument("--render", action="store_true", help="write truth|prediction panels")
    pr.add_argument("--threshold", type=float)

    return parser


# exceptions main() reports as one `error:` line on stderr (exit status 1)
REPORTED_ERRORS = (CliError, ValueError, KeyError, OSError, RuntimeError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve(args)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.checkpoint)
        if args.command == "predict":
            return cmd_predict(cfg, args.checkpoint, args.days, args.render)
        raise CliError(f"unknown command {args.command!r}")
    except REPORTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
