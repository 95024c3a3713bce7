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

from .affinity import AffinityFitHyper, affinity_accuracy, fit_affinity_head
from .engine import FileDetector, OracleDetector, TrackerModels, make_propagator, speedup_model, track, write_timing_report
from .metrics import clear_mot, idf1
from .model import ASSOCIATION_MODES, PROPAGATORS, ConfigError, TrackerConfig
from .modelio import read_models, write_models
from .motion import FitHyper, fit_regressor
from .stream import (
    DetectorConfig,
    StreamHeader,
    generate_scenario,
    load_script,
    read_motchallenge,
    read_scenario,
    rows_to_gt,
    write_motchallenge,
    write_scenario,
)

METRIC_COLUMNS = ["MOTA", "MOTP", "IDF1", "MT", "ML", "FP", "FN", "IDS", "Frag", "Rcll", "Prcn", "MODA"]


def _cmd_generate(args) -> int:
    script = load_script(args.script)
    if args.check_K is not None and args.gop % args.check_K != 0:
        raise ConfigError(f"key-frame period {args.check_K} does not divide gop {args.gop}")
    header = StreamHeader(
        width=args.width,
        height=args.height,
        block=args.block,
        gop=args.gop,
        fps=args.fps,
        feature_channels=args.channels,
        feature_bins=args.bins,
    )
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
    scenarios = [read_scenario(p) for p in args.scenarios]
    try:
        models = read_models(args.out)
    except FileNotFoundError:
        models = TrackerModels()
    if args.target == "regressor":
        params, loss = fit_regressor(scenarios, FitHyper(lr=args.lr, epochs=args.epochs))
        models.regressor = params
        print(f"regressor fitted: final loss {loss:.6g} over {args.epochs} epochs")
    else:
        rng = np.random.default_rng(args.seed)
        pairs = _affinity_pairs(scenarios, args.feature_noise, args.pairs_per_id, rng)
        order = rng.permutation(len(pairs))
        n_hold = max(1, int(len(pairs) * args.holdout))
        hold = [pairs[i] for i in order[:n_hold]]
        train = [pairs[i] for i in order[n_hold:]]
        params, ce = fit_affinity_head(train, AffinityFitHyper(lr=args.lr, epochs=args.epochs), mode=args.mode)
        models.affinity = params
        acc = affinity_accuracy(params, hold)
        print(f"affinity head fitted ({args.mode}): cross-entropy {ce:.6g}, held-out accuracy {acc:.3f}")
    write_models(models, args.out)
    return 0


# TrackerConfig fields with a flag of the same name (--tau-iou for tau_iou),
# and DetectorConfig fields with a --det- flag (--det-miss-rate).
TRACKER_FLAGS = ("K", "alpha", "tau_iou", "tau_app", "conf_min", "c_confirm", "l_confirm", "l_demote", "l_delete", "l_f")
DETECTOR_FLAGS = ("noise_center", "noise_size", "miss_rate", "fp_rate", "feature_noise")


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


def _make_detector(args, scenario):
    if args.detections is not None:
        return FileDetector(args.detections, scenario.header, seed=args.det_seed)
    return OracleDetector(scenario, _detector_config(args))


def _cmd_track(args) -> int:
    scenario = read_scenario(args.scenario)
    cfg = _tracker_config(args)
    models = _load_models(args)
    detector = _make_detector(args, scenario)
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
    gt = rows_to_gt(read_motchallenge(args.gt))
    results = [(f, i, b) for f, i, b, _ in read_motchallenge(args.results)]
    scores = clear_mot(gt, results, iou_min=args.iou_min)
    idf1_value = idf1(gt, results, iou_min=args.iou_min)
    print("\t".join(METRIC_COLUMNS))
    print(_metric_row(scores, idf1_value))
    return 0


def delayed(fn, seconds: float):
    """`fn` followed by a busy-wait of `seconds` on every call, emulating a
    heavier stage; the spin is sub-millisecond precise, unlike sleep."""

    def call(*args):
        out = fn(*args)
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return out

    return call


def _cmd_bench(args) -> int:
    ratio = args.force_ratio
    if ratio is not None and not (math.isfinite(ratio) and ratio > 0):
        raise ConfigError(f"--force-ratio must be positive and finite, got {ratio}")
    scenario = read_scenario(args.scenario)
    models = _load_models(args)
    detector = _make_detector(args, scenario)
    gt = scenario.gt
    base_cfg = _tracker_config(args)

    propagate = None
    if ratio is not None:
        _, probe = track(scenario, detector, replace(base_cfg, K=scenario.header.gop), models)
        a0 = sum(probe.mean_key())
        p0 = probe.mean_pro()
        key_target = max(0.03, 1.5 * a0, 1.25 * p0 / ratio)
        detect_delay = key_target - a0
        propagate_delay = ratio * key_target - p0
        print(f"# calibrated delays: detect {detect_delay * 1e3:.2f} ms, propagate {propagate_delay * 1e3:.2f} ms")
        detector = delayed(detector, detect_delay)
        propagate = delayed(make_propagator(base_cfg, models), propagate_delay)

    k_values = list(dict.fromkeys([1] + args.K_list))
    walls = {}
    rows_by_k = {}
    timings_by_k = {}
    for K in k_values:
        cfg = replace(base_cfg, K=K)
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
    p.add_argument("--block", type=int, default=16)
    p.add_argument("--gop", type=int, default=12)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--bins", type=int, default=7)
    p.add_argument("--check-K", type=int, default=None, help="verify this key-frame period divides the GOP")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="fit the velocity regressor or the affinity head")
    p.add_argument("--scenarios", nargs="+", required=True)
    p.add_argument("--target", choices=["regressor", "affinity"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["withps", "nops"], default="withps")
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
    p.add_argument("--force-ratio", type=float, default=None, help="calibrate delays to this propagate/detect ratio")
    add_track_flags(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fit":
        if args.lr is None:
            args.lr = 1e-2 if args.target == "regressor" else 1.0
        if args.epochs is None:
            args.epochs = 200 if args.target == "regressor" else 2000
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
