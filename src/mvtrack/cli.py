"""Batch command-line surface: generate, fit, track, evaluate, bench.

Exit codes: 0 success, 1 runtime error, 2 configuration error. All
randomness flows from explicit seed flags.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import replace

import numpy as np

from .affinity import MODES, AffinityFitHyper, AffinityHeadParams, affinity_accuracy, fit_affinity_head
from .engine import FileDetector, TrackerModels, make_propagator, speedup_model, track, write_timing_report
from .metrics import check_iou_min, clear_mot, frame_index, idf1
from .model import ASSOCIATION_MODES, PROPAGATORS, ConfigError, TrackerConfig, mot_table
from .modelio import read_models, write_models
from .motion import FitHyper, fit_regressor
from .stream import (
    DetectorConfig,
    OracleDetector,
    StreamHeader,
    generate_scenario,
    load_script,
    read_mot_table,
    read_scenario,
    write_motchallenge,
    write_scenario,
)

METRIC_COLUMNS = ["MOTA", "MOTP", "IDF1", "MT", "ML", "FP", "FN", "IDS", "Frag", "Rcll", "Prcn", "MODA"]


def _check_seed(args) -> None:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")


def _cmd_generate(args) -> int:
    _check_seed(args)
    if args.check_K is not None and (args.check_K < 1 or args.gop % args.check_K != 0):
        raise ConfigError(f"key-frame period {args.check_K} must be a positive divisor of gop {args.gop}")
    header = StreamHeader(args.width, args.height, **{field: getattr(args, flag) for flag, field in HEADER_FLAGS.items()})
    script = load_script(args.script)
    scenario = generate_scenario(script, header, args.seed)
    write_scenario(scenario, args.out)
    n_i = sum(1 for f in scenario.frames if f.kind == "I")
    print(
        f"wrote {args.out}: {scenario.n_frames} frames ({n_i} I / {scenario.n_frames - n_i} P, gop={header.gop}), "
        f"{len(scenario.feature_seeds)} objects, {len(scenario.gt)} gt rows"
    )
    return 0


def _affinity_pairs(scenarios, noise: float, per_id: int, rng) -> list:
    pairs = []
    for sc in scenarios:
        ids = sorted(sc.feature_seeds)
        if len(ids) < 2:
            raise ValueError("affinity fitting needs at least two identities per scenario")
        for obj_id in ids:
            for _ in range(per_id):
                a = sc.feature_of(obj_id, noise, rng)
                b = sc.feature_of(obj_id, noise, rng)
                pairs.append((a, b, 1))
                other = ids[rng.integers(len(ids))]
                while other == obj_id:
                    other = ids[rng.integers(len(ids))]
                c = sc.feature_of(other, noise, rng)
                pairs.append((a, c, 0))
    return pairs


def _cmd_fit(args) -> int:
    if args.lr is not None and not (math.isfinite(args.lr) and args.lr > 0):
        raise ConfigError(f"--lr must be positive and finite, got {args.lr}")
    if args.epochs is not None and args.epochs < 0:
        raise ConfigError(f"--epochs must be >= 0, got {args.epochs}")
    if not 0 < args.holdout < 1:
        raise ConfigError(f"--holdout must lie in (0, 1), got {args.holdout}")
    if args.pairs_per_id < 1:
        raise ConfigError(f"--pairs-per-id must be >= 1, got {args.pairs_per_id}")
    if not (math.isfinite(args.feature_noise) and args.feature_noise >= 0):
        raise ConfigError(f"--feature-noise must be non-negative and finite, got {args.feature_noise}")
    _check_seed(args)
    scenarios = [read_scenario(p) for p in args.scenarios]
    try:
        models = read_models(args.out)
    except FileNotFoundError:
        models = TrackerModels()
    hyper = FitHyper() if args.target == "regressor" else AffinityFitHyper()
    hyper = replace(hyper, **{k: v for k, v in (("lr", args.lr), ("epochs", args.epochs)) if v is not None})
    if args.target == "regressor":
        params, loss = fit_regressor(scenarios, hyper)
        models.regressor = params
        print(f"regressor fitted: final loss {loss:.6g} over {hyper.epochs} epochs")
    else:
        rng = np.random.default_rng(args.seed)
        pairs = _affinity_pairs(scenarios, args.feature_noise, args.pairs_per_id, rng)
        order = rng.permutation(len(pairs))
        n_hold = max(1, int(len(pairs) * args.holdout))
        hold = [pairs[i] for i in order[:n_hold]]
        train = [pairs[i] for i in order[n_hold:]]
        if len({label for _, _, label in train}) < 2:
            raise ConfigError(
                f"--holdout {args.holdout} and --pairs-per-id {args.pairs_per_id} leave {len(train)} training "
                "pairs with one label; lower --holdout or raise --pairs-per-id"
            )
        params, ce = fit_affinity_head(train, hyper, mode=args.mode)
        models.affinity = params
        acc = affinity_accuracy(params, hold)
        print(f"affinity head fitted ({args.mode}): cross-entropy {ce:.6g}, held-out accuracy {acc:.3f}")
    write_models(models, args.out)
    return 0


# TrackerConfig fields with a flag of the same name (--tau-iou for tau_iou),
# DetectorConfig fields with a --det- flag (--det-miss-rate), and generate's
# flags for the StreamHeader fields that have defaults.
TRACKER_FLAGS = ("K", "alpha", "tau_iou", "tau_app", "conf_min", "c_confirm", "l_confirm", "l_demote", "l_delete", "l_f")
DETECTOR_FLAGS = ("noise_center", "noise_size", "miss_rate", "fp_rate", "feature_noise")
HEADER_FLAGS = {"block": "block", "gop": "gop", "fps": "fps", "channels": "feature_channels", "bins": "feature_bins"}


def _tracker_config(args) -> TrackerConfig:
    return TrackerConfig(
        association_mode=args.assoc,
        propagator=args.propagator,
        **{name: getattr(args, name) for name in TRACKER_FLAGS},
    )


def _detector_config(args) -> DetectorConfig:
    return DetectorConfig(
        conf_min=args.conf_min,
        rng_seed=args.det_seed,
        **{name: getattr(args, "det_" + name) for name in DETECTOR_FLAGS},
    )


def _load_models(args) -> TrackerModels:
    if args.models is None:
        return TrackerModels()
    return read_models(args.models)


def _make_detector(args, scenario, det_cfg: DetectorConfig):
    if args.detections is not None:
        return FileDetector(args.detections, scenario.header, seed=args.det_seed)
    return OracleDetector(scenario, det_cfg)


def _cmd_track(args) -> int:
    cfg, det_cfg = _tracker_config(args), _detector_config(args)
    scenario = read_scenario(args.scenario)
    models = _load_models(args)
    detector = _make_detector(args, scenario, det_cfg)
    rows, timings = track(scenario, detector, cfg, models)
    write_motchallenge([(f, i, b, 1.0) for f, i, b in rows], args.out)
    if args.timing_out is not None:
        write_timing_report(timings, cfg.K, args.timing_out)
    print(f"tracked {scenario.n_frames} frames, {len(rows)} output rows -> {args.out}")
    return 0


def _metric_row(scores, idf1_value: float) -> str:
    vals = [
        f"{scores.mota:.3f}",
        f"{scores.motp:.3f}",
        f"{idf1_value:.3f}",
        str(scores.mt),
        str(scores.ml),
        str(scores.fp),
        str(scores.fn),
        str(scores.ids),
        str(scores.frag),
        f"{scores.rcll:.3f}",
        f"{scores.prcn:.3f}",
        f"{scores.moda:.3f}",
    ]
    return "\t".join(vals)


def _cmd_evaluate(args) -> int:
    check_iou_min(args.iou_min)
    gt, results = read_mot_table(args.gt), read_mot_table(args.results)
    frames = frame_index(gt, results)  # one IoU matrix per frame serves both scores
    scores = clear_mot(gt, results, iou_min=args.iou_min, frames=frames)
    idf1_value = idf1(gt, results, iou_min=args.iou_min, frames=frames)
    print("\t".join(METRIC_COLUMNS))
    print(_metric_row(scores, idf1_value))
    return 0


PAD_CAP = 1.0  # seconds: the longest target `padded_stages` pads a stage call to


def delayed(fn, seconds: float):
    """`fn` padded to a target: each call busy-waits until `seconds` have
    passed since it began, so it lasts at least that long and drift in
    `fn`'s own work changes the padding, not the call's length; the spin is
    sub-millisecond precise, unlike sleep."""

    def call(*args):
        end = time.perf_counter() + seconds
        out = fn(*args)
        while time.perf_counter() < end:
            pass
        return out

    return call


def padded_stages(scenario, detector, cfg: TrackerConfig, models: TrackerModels, ratio: float) -> tuple:
    """One unpadded probe run of `track` under `cfg` sets two targets so that
    T_pro / (T_det + T_ass), the paper's ratio, equals `ratio`: a key frame's
    `key` = max(40 ms, 1.5 (T_det + T_ass), 1.25 T_pro / `ratio`), and
    `ratio` * `key`. Returns the detector padded to `key` - T_ass, `cfg`'s
    propagator padded to `ratio` * `key`, and the two targets; a stage target
    above PAD_CAP raises ConfigError."""
    _, probe = track(scenario, detector, cfg, models)
    t_det, t_ass, _ = probe.mean_key()
    key = max(0.04, 1.5 * (t_det + t_ass), 1.25 * probe.mean_pro() / ratio)
    det, pro = key - t_ass, ratio * key
    for stage, target in (("detect", det), ("propagate", pro)):
        if target > PAD_CAP:
            raise ConfigError(f"force ratio {ratio:g} needs a {stage} target of {target:g} s, above the {PAD_CAP:g} s cap")
    return delayed(detector, det), delayed(make_propagator(cfg, models), pro), key, pro


def _cmd_bench(args) -> int:
    ratio = args.force_ratio
    if ratio is not None and not (math.isfinite(ratio) and ratio > 0):
        raise ConfigError(f"--force-ratio must be positive and finite, got {ratio}")
    if args.repeat < 1:
        raise ConfigError(f"--repeat must be >= 1, got {args.repeat}")
    base_cfg, det_cfg = _tracker_config(args), _detector_config(args)
    configs = {K: replace(base_cfg, K=K) for K in dict.fromkeys([1] + args.K_list)}  # checks each K before reading
    scenario = read_scenario(args.scenario)
    models = _load_models(args)
    detector = _make_detector(args, scenario, det_cfg)
    gt = mot_table(scenario.gt)

    propagate = None
    if ratio is not None:
        probe_cfg = replace(base_cfg, K=scenario.header.gop)
        detector, propagate, key, pro = padded_stages(scenario, detector, probe_cfg, models, ratio)
        print(f"# padded targets: detect + associate {key * 1e3:.2f} ms, propagate {pro * 1e3:.2f} ms")

    walls = {}
    rows_by_k = {}
    timings_by_k = {}
    for K, cfg in configs.items():
        best = None
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            rows, timings = track(scenario, detector, cfg, models, propagate)
            wall = time.perf_counter() - t0
            if best is None or wall < best[0]:
                best = (wall, rows, timings)
        walls[K], rows_by_k[K], timings_by_k[K] = best

    print("K\tMOTA\tHz\tmodeled_s\tmeasured_s")
    for K in args.K_list:
        scores = clear_mot(gt, rows_by_k[K])
        hz = scenario.n_frames / walls[K]
        modeled = speedup_model(timings_by_k[K], K)
        measured = walls[1] / walls[K]
        print(f"{K}\t{scores.mota:.3f}\t{hz:.1f}\t{modeled:.3f}\t{measured:.3f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every call shares it."""
    parser = argparse.ArgumentParser(prog="mvtrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a scenario file from a motion script")
    p.add_argument("--script", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=960)
    p.add_argument("--height", type=int, default=540)
    for flag, field in HEADER_FLAGS.items():
        default = getattr(StreamHeader, field)
        p.add_argument("--" + flag, type=type(default), default=default)
    p.add_argument("--check-K", type=int, default=None, help="verify this key-frame period divides the GOP")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="fit the velocity regressor or the affinity head")
    p.add_argument("--scenarios", nargs="+", required=True)
    p.add_argument("--target", choices=["regressor", "affinity"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default=AffinityHeadParams.mode)
    p.add_argument("--feature-noise", type=float, default=0.1)
    p.add_argument("--pairs-per-id", type=int, default=8)
    p.add_argument("--holdout", type=float, default=0.25)
    p.set_defaults(func=_cmd_fit)

    def add_track_flags(p):
        p.add_argument("--models", default=None)
        p.add_argument("--propagator", choices=PROPAGATORS, default=TrackerConfig.propagator)
        p.add_argument("--assoc", choices=ASSOCIATION_MODES, default=TrackerConfig.association_mode)
        for name in TRACKER_FLAGS:
            default = getattr(TrackerConfig, name)
            p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
        p.add_argument("--detections", default=None, help="external MOTChallenge det file")
        p.add_argument("--det-seed", type=int, default=DetectorConfig.rng_seed)
        for name in DETECTOR_FLAGS:
            p.add_argument("--det-" + name.replace("_", "-"), type=float, default=getattr(DetectorConfig, name))

    p = sub.add_parser("track", help="run the tracker over a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timing-out", default=None)
    add_track_flags(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("evaluate", help="score a result file against a ground-truth file")
    p.add_argument("--gt", required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--iou-min", type=float, default=0.5)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", help="sweep key-frame periods and report speed/accuracy")
    p.add_argument("--scenario", required=True)
    p.add_argument("--K-list", type=int, nargs="+", default=[1, 2, 3, 4, 6])
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--force-ratio", type=float, default=None, help="pad the detector and propagator to this T_pro/(T_det+T_ass) ratio")
    add_track_flags(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
