"""Random configurations through the whole CLI.

Each example draws a small configuration over the generate, prepare and
train keys and runs generate -> prepare -> train -> evaluate -> predict
through cli.main in process, at --threads 1, at --threads 2, and at
--threads 1 again. Each command exits 0 or prints exactly one `error:`
line of a kind listed in REFUSALS. A completed pipeline writes the same
bytes, every file whole, at every thread count and on every run, each in
its own directory, a `predict` into a fresh directory writes the masks
`evaluate` wrote, and the holdout counts add up to the holdout
days' land pixels. Examples are derandomized, so the suite stays
deterministic.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cli import _main_quietly

from fireseg import data as D
from fireseg import formats as F

# the refusals a valid configuration may meet, by kind
REFUSALS = {
    # a by-day grouping needs as many fire-bearing days as folds
    "by-day folds": re.compile(r"only \d+ fire-bearing by-day groups for k=\d+ folds; lower k$"),
    # a blurred field's corner can burn at every bias (an open FOUND in CHANGES.md)
    "calibration": re.compile(r"fire-rate target outside the calibratable range"),
}

PIPELINES = settings(
    derandomize=True,
    database=None,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@st.composite
def configs(draw) -> dict:
    return {
        "height": draw(st.integers(64, 128)), "width": draw(st.integers(64, 128)),
        "days": draw(st.integers(2, 4)), "holdout_days": draw(st.integers(1, 2)),
        "numeric_channels": draw(st.integers(3, 5)), "categories": draw(st.integers(2, 4)),
        "target_fire_rate": draw(st.sampled_from([0.005, 0.01, 0.02])),
        "water_fraction": draw(st.sampled_from([0.0, 0.15, 0.3])),
        "blur_radius": draw(st.integers(0, 9)),
        "seed": draw(st.integers(0, 1000)),
        "tr": draw(st.sampled_from([0.5, 1.0, 4.0])),
        "fire_buffer": draw(st.sampled_from(["off", "train", "train+val"])),
        "buffer_radius": draw(st.integers(0, 3)),
        "init_features": draw(st.integers(1, 4)),
        "folds": draw(st.integers(2, 3)),
        "es_metric": draw(st.sampled_from(["sh1", "sh2"])),
        "batch_size": draw(st.integers(1, 32)),
        "grouping": draw(st.sampled_from(list(D.GROUPINGS))),
        "threshold": draw(st.floats(0.0, 1.0)),
    }


def _flags(cfg: dict, *keys) -> list[str]:
    return [arg for key in keys for arg in ("--" + key.replace("_", "-"), str(cfg[key]))]


def _pipeline(root: Path, cfg: dict, threads: int) -> str | None:
    """Run the five commands into root/ds and root/run; the refusal's kind, or None."""
    ds, run = root / "ds", root / "run"
    root.mkdir()
    # train takes these two keys from a config file only
    (root / "train.cfg").write_text(f"grouping={cfg['grouping']}\nthreshold={cfg['threshold']!r}\n")
    shared = ["--seed", cfg["seed"], "--threads", threads]
    net = [run / "best.unc", "--threshold", repr(cfg["threshold"])]
    steps = [
        ["generate", "--out", ds, *shared, *_flags(cfg, "height", "width", "days", "holdout_days",
         "numeric_channels", "categories", "target_fire_rate", "water_fraction", "blur_radius")],
        ["prepare", "--data", ds, "--out", ds, *shared, *_flags(cfg, "tr")],
        ["train", "--config", root / "train.cfg", "--data", ds, "--out", run, *shared,
         "--max-epochs", 2, "--patience", 1, *_flags(cfg, "tr", "fire_buffer", "buffer_radius",
         "init_features", "folds", "es_metric", "batch_size")],
        ["evaluate", "--data", ds, "--out", run, *shared, *net],
        ["predict", "--data", ds, "--out", run, *shared, *net, "--render"],
    ]
    for step in steps:
        if step[0] == "predict":
            step += [d.isoformat() for d in F.read_splits(ds / "splits.json")[1]]
        code, err = _main_quietly(step)
        if code == 0:
            assert all(line.startswith("warning: ") for line in err), (step[0], err)
            continue
        assert code == 1 and len(err) == 1 and err[0].startswith("error: "), (step[0], code, err)
        kinds = [kind for kind, pattern in REFUSALS.items() if pattern.search(err[0])]
        assert kinds, (step[0], err)
        return kinds[0]
    return None


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "train.cfg"}


@PIPELINES
@given(cfg=configs())
def test_a_random_configuration_runs_to_the_same_bytes_or_is_refused(tmp_path, cfg):
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        roots = [Path(tmp) / name for name in ("t1", "t2", "again")]
        refusals = [_pipeline(root, cfg, threads) for root, threads in zip(roots, (1, 2, 1))]
        assert refusals[1:] == refusals[:1] * 2
        trees = [_tree(root) for root in roots]
        assert trees[1] == trees[0] and trees[2] == trees[0]
        if refusals[0] is not None:
            return
        ds, run = roots[0] / "ds", roots[0] / "run"
        holdout = F.read_splits(ds / "splits.json")[1]
        fresh = Path(tmp) / "fresh"
        assert _main_quietly(["predict", "--data", ds, "--out", fresh, run / "best.unc", "--threshold",
                     repr(cfg["threshold"]), *(d.isoformat() for d in holdout)])[0] == 0
        for day in holdout:
            name = f"pred_{day.isoformat()}.msk"
            assert (fresh / name).read_bytes() == (run / name).read_bytes(), name
        header, row = (run / "holdout.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        land = sum(int((F.read_mask(F.day_paths(ds / "prepared", d)[1]) != D.WATER).sum())
                   for d in holdout)
        assert sum(int(cells[c]) for c in F.COUNT_COLUMNS) == land
