"""Command-line pipeline: generate, prepare, train, evaluate, predict.

Configuration comes from a flat key=value file plus command-line flags
(flags win). Every output is written atomically, and all commands are
bitwise-reproducible from (inputs, config, seed) at --threads 1; to keep
that guarantee the BLAS thread pool is pinned before numpy loads.

`evaluate` writes each holdout day's mask as `predict` would, then the
run's record, evaluate.json. `predict` keeps a mask that record vouches
for (same threshold, checkpoint, versions, BLAS and CPU; same prepared
files and mask on disk, by sha256), so a day `evaluate` scored does not go
through the network again.
"""

# must happen before the first numpy import anywhere in the process
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import warnings
from collections import deque
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import Field, fields
from datetime import date
from pathlib import Path

from . import data as D
from . import formats as F
from . import synthetic as S
from . import training as T
from .metrics import format_scores

# a config key is named after the TrainConfig/SynthConfig field it sets, but for `tr`
_KEY_FOR_FIELD = {"tile_ratio": "tr"}


def _field_keys(cls) -> dict[str, Field]:
    """Config key -> the field of dataclass cls that it sets."""
    return {_KEY_FOR_FIELD.get(f.name, f.name): f for f in fields(cls)}


# the default of every key but the two directories: the TrainConfig and
# SynthConfig field defaults (`days` counts train days only) plus the CLI's
# own; a key's value, from a file or a flag, is cast to its default's type
DEFAULTS = {key: f.default for cls in (T.TrainConfig, S.SynthConfig)
            for key, f in _field_keys(cls).items()}
DEFAULTS |= {"threads": 1, "holdout_days": 10}
# every key a config file may define
KNOWN_KEYS = DEFAULTS.keys() | {"data_dir", "out_dir"}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as CliError, so they keep the one-line contract."""

    def error(self, message):
        raise CliError(message)


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
        if key in values:
            raise CliError(f"{path}:{lineno}: key {key!r} set twice")
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


def _get(cfg: dict, key: str):
    """cfg[key] cast to the type of the key's default, or that default when unset."""
    default = DEFAULTS[key]
    if key not in cfg:
        return default
    try:
        return type(default)(cfg[key])
    except ValueError as exc:
        raise CliError(f"config key {key}={cfg[key]!r}: {exc}") from exc


def _build(cls, cfg: dict, **fixed):
    """cls from its field defaults, overridden by cfg's keys, then by fixed."""
    values = {f.name: _get(cfg, key) for key, f in _field_keys(cls).items()}
    return cls(**{**values, **fixed})


def train_config(cfg: dict) -> T.TrainConfig:
    return _build(T.TrainConfig, cfg)


def _map_days(fn, items, threads: int) -> list:
    """[fn(item) for item in items] in `threads` threads.

    items is drawn lazily: at most `threads` items are drawn and not yet done,
    so a stream of days is held a few days at a time.
    """
    if threads <= 1:
        return [fn(item) for item in items]
    results, running = [], deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for item in items:
            running.append(pool.submit(fn, item))
            if len(running) == threads:  # the next item is drawn once the oldest is done
                results.append(running.popleft().result())
        results.extend(future.result() for future in running)
    return results


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
    """Write a synthetic dataset, each day as stream_dataset builds it.

    Memory: every day's rule channels and mask (see stream_dataset), plus one
    full day per worker (`threads` workers).
    """
    out = Path(cfg.get("out_dir", "."))
    n_train = _get(cfg, "days")
    n_holdout = _get(cfg, "holdout_days")
    if n_train < 1 or n_holdout < 1:
        raise CliError(f"need at least 1 train-val and 1 holdout day, got {n_train} and {n_holdout}")
    synth = _build(S.SynthConfig, cfg, days=n_train + n_holdout)
    days, schema, rule = S.stream_dataset(synth)
    raw = out / "raw"
    raw.mkdir(parents=True, exist_ok=True)
    names = [ch.name for ch in schema.channels]

    def write(day: D.GridDay) -> tuple[date, int]:
        F.write_day(raw, day, names)
        return day.day_id, int((day.mask == D.FIRE).sum())

    written = _map_days(write, days, _get(cfg, "threads"))
    F.write_schema(out / "schema.json", schema)
    F.write_rule(out / "rule.json", rule)
    day_ids = [day_id for day_id, _ in written]
    F.write_splits(out / "splits.json", day_ids[:n_train], day_ids[n_train:])
    fire_px = sum(fire for _, fire in written)
    print(
        f"generated {len(written)} days ({n_train} train-val, {n_holdout} holdout) "
        f"at {synth.height}x{synth.width}, {fire_px} fire pixels, into {raw}"
    )
    return 0


def cmd_prepare(cfg: dict) -> int:
    """Scale, encode and write every day, and write the tile manifests, in two passes.

    Pass 1 fits the scaling on the raw train days, read one at a time; pass 2
    reads each day again, writes it scaled and encoded, and keeps its tiles.
    Memory: one raw and one encoded day per worker (`threads` workers), plus
    the tile specs.
    """
    tr = T.TrainConfig(tile_ratio=_get(cfg, "tr")).tile_ratio  # TrainConfig's check of tr
    data, out = _data_and_out(cfg, cfg.get("out_dir", "."))
    schema = F.read_schema(_require_file(data / "schema.json", "schema"))
    train_ids, holdout_ids = F.read_splits(_require_file(data / "splits.json", "splits file"))
    raw = _Days(data, "raw", train_ids + holdout_ids,
                (data / "schema.json", [ch.name for ch in schema.channels]))

    scaling = D.fit_scaling((raw[d] for d in train_ids), schema)
    F.write_scaling(out / "scaling.json", scaling)
    if out.resolve() != data.resolve():  # train and evaluate check the manifests' days against it
        F.write_splits(out / "splits.json", train_ids, holdout_ids)

    prepared = out / "prepared"
    prepared.mkdir(parents=True, exist_ok=True)
    encoded_names = schema.encoded_names()

    # encoding keeps the day's mask, so the raw day's tiles are the encoded day's
    def prepare_day(job: tuple[date, bool]) -> Sequence[D.TileSpec]:
        day_id, held_out = job
        day = raw[day_id]
        enc, _ = D.one_hot_encode(D.apply_scaling(day, scaling), schema)
        F.write_day(prepared, enc, encoded_names)
        return D.holdout_tileset([day]).specs if held_out else D.extract_tiles(day)

    n_train = len(train_ids)
    jobs = [(d, False) for d in train_ids] + [(d, True) for d in holdout_ids]
    tiles = _map_days(prepare_day, jobs, _get(cfg, "threads"))
    train_tiles = [spec for specs in tiles[:n_train] for spec in specs]
    sampled = D.sample_tileset(train_tiles, tr, _get(cfg, "seed"))
    F.write_manifest(out / "train_val_tiles.csv", sampled)
    holdout_set = D.TileSet(tuple(spec for specs in tiles[n_train:] for spec in specs), D.HOLDOUT)
    F.write_manifest(out / "holdout_tiles.csv", holdout_set)
    print(
        f"prepared {n_train} train-val + {len(holdout_ids)} holdout days; "
        f"sampled {len(sampled.specs)} tiles ({sampled.fire_count()} fire, tr={tr}), "
        f"holdout keeps {len(holdout_set.specs)} land tiles"
    )
    return 0


_SPLIT = {D.SAMPLED: "train_val", D.HOLDOUT: "holdout"}  # the splits.json list a manifest draws on


class _Days:
    """The days day_ids of directory data/kind (raw or prepared), held to one channel-name rule:
    every stack carries the reference's names (the file and names given, else the first day's)
    and, for a checkpoint (path, input count), exactly that many. Opening them checks every
    day's headers, reading no payload, and fixes the reference, so a command opens its days
    in its main thread before its first write; a lookup then only reads and compares."""

    def __init__(self, data: Path, kind: str, day_ids: Sequence[date],
                 reference: tuple[Path, list[str]] | None = None,
                 checkpoint: tuple[Path, int] | None = None):
        self.directory, self.reference = _require_dir(data / kind, f"{kind} data"), reference
        for day_id in day_ids:
            stack, mask = F.day_paths(self.directory, day_id)
            for path in (stack, mask):
                _require_file(path, f"{kind} day")
            names = F.check_day(self.directory, day_id)
            if checkpoint and checkpoint[1] != len(names):
                raise CliError(f"{checkpoint[0]}: checkpoint takes {checkpoint[1]} input "
                               f"channels, {stack} holds {len(names)}")
            self.reference = self.reference or (stack, names)
            self._same_names(stack, names)

    def _same_names(self, stack: Path, names: list[str]) -> None:
        if names != self.reference[1]:
            raise CliError(f"{stack}: channel names differ from those of {self.reference[0]}")

    def __getitem__(self, day_id: date) -> D.GridDay:
        day, names = F.read_day(self.directory, day_id)
        self._same_names(F.day_paths(self.directory, day_id)[0], names)
        return day


class _ManifestDays(Mapping):
    """The prepared days a manifest names, and the days it must cover, in date
    order. Each is read through `prepared`, the _Days that _load_manifest opens
    on them, when looked up, and kept only by the caller.

    A day read is checked against its manifest rows: every row must be one of
    the day's land tiles, with its class, and a holdout manifest must hold
    every land tile of its days, which are all the holdout days of its split.
    """

    def __init__(self, path: Path, tileset: D.TileSet, covered: Sequence[date] = ()):
        self.path, self.split = path, _SPLIT[tileset.provenance]
        self.rows: dict[date, set[D.TileSpec]] = {day_id: set() for day_id in covered}
        for spec in tileset.specs:
            self.rows.setdefault(spec.day_id, set()).add(spec)

    def __getitem__(self, day_id: date) -> D.GridDay:
        rows, day = self.rows[day_id], self.prepared[day_id]
        land = set(D.holdout_tileset([day]).specs)
        if not (rows == land if self.split == "holdout" else rows <= land):
            raise CliError(f"{self.path}: does not match prepared {self.split} day {day_id}; "
                           "re-run prepare")
        return day

    def __iter__(self):
        return iter(sorted(self.rows))

    def __len__(self) -> int:
        return len(self.rows)


def _load_manifest(data: Path, name: str, provenance: str,
                   checkpoint: tuple[Path, int] | None = None) -> tuple[D.TileSet, _ManifestDays]:
    """The manifest data/name and its prepared days, refused unless it carries
    provenance and every day it names is on its list in splits.json; then the
    days are opened as _Days, for the checkpoint if one is given."""
    path = data / name
    tileset = F.read_manifest(_require_file(path, "manifest"))
    if tileset.provenance != provenance:
        raise CliError(f"{path}: manifest carries {tileset.provenance} provenance, not {provenance}")
    splits = _require_file(data / "splits.json", "splits file")
    train_ids, holdout_ids = F.read_splits(splits)
    listed = holdout_ids if provenance == D.HOLDOUT else train_ids
    days = _ManifestDays(path, tileset, listed if provenance == D.HOLDOUT else ())
    for day_id in days:
        if day_id not in listed:
            raise CliError(f"{path}: day {day_id} is not a {_SPLIT[provenance]} day of {splits}")
    days.prepared = _Days(data, "prepared", list(days), checkpoint=checkpoint)
    return tileset, days


def cmd_train(cfg: dict) -> int:
    """Cross-validate on the sampled tiles.

    Memory: the sampled tiles, plus one prepared day while they are cut,
    then one fold's state and step at a time (see train_fold) and each
    finished fold's best checkpoint.
    """
    config = train_config(cfg)
    data, out = _data_and_out(cfg)
    tileset, days = _load_manifest(data, "train_val_tiles.csv", D.SAMPLED)
    cv = T.cross_validate(tileset, days, config)

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


def _pred_name(day_id: date) -> str:
    return f"pred_{day_id.isoformat()}.msk"


def _day_digests(data: Path, out: Path, day_id: date) -> dict[str, str]:
    """sha256 of a day's prepared stack and mask (under data) and of its pred
    mask (under out), each keyed by its path relative to that directory."""
    files = {path.as_posix(): data / path for path in F.day_paths(Path("prepared"), day_id)}
    files[_pred_name(day_id)] = out / _pred_name(day_id)
    return {name: F.file_sha256(path) for name, path in files.items()}


def cmd_evaluate(cfg: dict, checkpoint: Path) -> int:
    """Score the checkpoint on the holdout days, writing each day's mask as
    predict would, then the run's record. Memory: one prepared day, one worker.

    Of the training keys it reads only threshold. Every day's headers are
    checked first; then a day's mask is written as soon as the day is scored,
    and evaluate.json is the last write, so a run that fails later (a stale
    manifest row, a non-finite value) leaves the masks of the days before the
    failure and no new record.
    """
    config = T.TrainConfig(threshold=_get(cfg, "threshold"))
    data, out = _data_and_out(cfg)
    params = F.read_checkpoint(_require_file(checkpoint, "checkpoint"))
    _, days = _load_manifest(data, "holdout_tiles.csv", D.HOLDOUT,
                             (checkpoint, params.config.in_channels))
    day_ids = list(days)

    digests = {}

    def write_pred(day: D.GridDay, pred) -> None:
        F.write_mask(out / _pred_name(day.day_id), pred)
        digests[day.day_id.isoformat()] = _day_digests(data, out, day.day_id)

    result = T.evaluate_holdout(params, days.values(), config, on_mask=write_pred)
    days_run = f"{day_ids[0].isoformat()}..{day_ids[-1].isoformat()}"
    checkpoint_sha = F.file_sha256(checkpoint)
    row = F.metric_row([checkpoint_sha, days_run, result.tiles], result.values())
    row += [str(getattr(result.counts, c)) for c in F.COUNT_COLUMNS]
    F.write_csv(out / "holdout.csv", F.HOLDOUT_COLUMNS, [row])
    F.write_evaluate_record(out / F.EVALUATE_RECORD, config.threshold, checkpoint_sha, digests)
    print(f"holdout: tiles={result.tiles} {format_scores(result.values())}")
    return 0


def cmd_predict(cfg: dict, checkpoint: Path, day_args: list[str], render: bool) -> int:
    """Predict the named days. Memory: one prepared day per worker (`threads` workers).

    A day that evaluate.json in the output directory records, for this
    checkpoint and threshold, with its prepared files and its mask on disk
    unchanged, keeps that mask: it is rendered from it, not predicted again.
    """
    threshold = T.TrainConfig(threshold=_get(cfg, "threshold")).threshold
    try:
        day_ids = [date.fromisoformat(arg := s) for s in day_args]
    except ValueError as exc:
        raise CliError(f"invalid day id {arg!r}: {exc}") from exc
    if len(set(day_ids)) != len(day_ids):
        raise CliError(f"day {next(d for d in day_ids if day_ids.count(d) > 1)} is named twice")
    data, out = _data_and_out(cfg)
    params = F.read_checkpoint(_require_file(checkpoint, "checkpoint"))
    days = _Days(data, "prepared", day_ids, checkpoint=(checkpoint, params.config.in_channels))
    recorded = F.read_evaluate_record(out / F.EVALUATE_RECORD, threshold, F.file_sha256(checkpoint))

    def predict_one(day_id: date) -> bool:
        """Write the day's mask and render; True if evaluate's mask was kept."""
        pred_path = out / _pred_name(day_id)
        entry = recorded.get(day_id.isoformat())
        kept = entry is not None and pred_path.is_file() and entry == _day_digests(data, out, day_id)
        if not kept:
            day = days[day_id]
            truth, pred = day.mask, T.predict_day(params, day, threshold)
            F.write_mask(pred_path, pred)
        elif render:
            truth, pred = F.read_mask(F.day_paths(data / "prepared", day_id)[1]), F.read_mask(pred_path)
        if render:
            F.write_ppm(out / f"render_{day_id.isoformat()}.ppm", F.render_panels(truth, pred))
        return kept

    kept = sum(_map_days(predict_one, day_ids, _get(cfg, "threads")))
    print(f"predicted {len(day_ids)} day(s) into {out}" + (" (rendered)" if render else "")
          + (f", {kept} kept from {F.EVALUATE_RECORD}" if kept else ""))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


# command -> (help, the keys of its flags besides SHARED_KEYS): a flag for each key it reads
# and no other, but `evaluate --seed` and `--threads` on train and evaluate (see the README).
# `--out`/`--data` set the two directories; every other key has a flag of its name, `--tr` style
COMMANDS = {
    "generate": ("write a synthetic dataset",
                 ("seed", "days", "holdout_days", "height", "width", "numeric_channels",
                  "categories", "target_fire_rate", "water_fraction", "blur_radius")),
    "prepare": ("normalize, encode, tile and sample", ("data_dir", "seed", "tr")),
    "train": ("k-fold cross-validated training",
              ("data_dir", "seed", "tr", "fire_buffer", "buffer_radius", "init_features",
               "es_metric", "folds", "patience", "max_epochs", "lr", "batch_size", "threshold",
               "grouping")),
    "evaluate": ("pixel metrics on the untouched holdout", ("data_dir", "seed", "threshold")),
    "predict": ("predict day masks, optionally rendered", ("data_dir", "threshold")),
}
SHARED_KEYS = ("threads", "out_dir")
_DIR_FLAGS = {"out_dir": "--out", "data_dir": "--data"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fireseg",
        description="next-day fire prediction pipeline over tiled raster stacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, help="key=value config file")
        for key in SHARED_KEYS + keys:
            if key in _DIR_FLAGS:
                p.add_argument(_DIR_FLAGS[key], dest=key, help=f"config key {key}")
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(DEFAULTS[key]),
                               help=f"config key {key} (default {DEFAULTS[key]})")
        if command in ("evaluate", "predict"):
            p.add_argument("checkpoint", type=Path)
    predict = sub.choices["predict"]
    predict.add_argument("day_ids", nargs="+", metavar="days", help="day ids (ISO dates)")
    predict.add_argument("--render", action="store_true", help="write truth|prediction panels")
    return parser


# exceptions main() reports as one `error:` line on stderr (exit status 1)
REPORTED_ERRORS = (CliError, ValueError, KeyError, OSError, RuntimeError)


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():  # each warning one `warning:` line; restored on the way out
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            cfg = resolve(args)
            for key, low in (("seed", 0), ("threads", 1)):  # before any command reads or writes
                if _get(cfg, key) < low:
                    raise CliError(f"config key {key}={cfg[key]}: must be at least {low}")
            if args.command == "generate":
                return cmd_generate(cfg)
            if args.command == "prepare":
                return cmd_prepare(cfg)
            if args.command == "train":
                return cmd_train(cfg)
            if args.command == "evaluate":
                return cmd_evaluate(cfg, args.checkpoint)
            return cmd_predict(cfg, args.checkpoint, args.day_ids, args.render)
        except REPORTED_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
        except MemoryError as exc:  # a setting too large to allocate
            print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
