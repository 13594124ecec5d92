"""Command-line interface: ber, sweep, opoint, and datapath subcommands."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .datapath import PipelineConfig, effective_throughput, throughput_bps
from .harness import (
    RunConfig,
    StopRule,
    default_grid,
    emit_sweep,
    render_report,
    run_ber,
    snr_operating_point,
    threshold_sweep,
)
from .numerics import QFormat


def _parse_fmt(text: str) -> QFormat:
    total, frac = text.split(":")
    return QFormat(int(total), int(frac))


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r} (use true/false, 1/0 or yes/no)")


def _parse_grid(text: str | None) -> np.ndarray:
    if text is None:
        return default_grid()
    return np.array([float(t) for t in text.split(",")])


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--mode", choices=["lmmse-a", "lmmse-b", "lmmse-spade"])
    p.add_argument("--b", type=int, help="basestation antennas (power of 4)")
    p.add_argument("--u", type=int, help="number of users")
    p.add_argument("--mod", type=int, help="QAM order (4/16/64/256)")
    p.add_argument("--channel", choices=["los", "nlos", "file"])
    p.add_argument("--channel-file", help="path for --channel file")
    p.add_argument("--tau-w", type=float, help="weight threshold")
    p.add_argument("--tau-y", type=float, help="input threshold")
    p.add_argument("--seed", type=int)
    p.add_argument("--weight-fmt", type=_parse_fmt, metavar="T:F")
    p.add_argument("--input-fmt", type=_parse_fmt, metavar="T:F")
    p.add_argument("--twiddle-fmt", type=_parse_fmt, metavar="T:F")
    p.add_argument("--exact-fft", action="store_true", default=None)
    p.add_argument("--float", dest="float_mode", action="store_true", default=None,
                   help="disable all quantization (infinite-precision mode)")
    p.add_argument("--vectors-per-block", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--target-errors", type=int)
    p.add_argument("--max-vectors", type=int)
    p.add_argument("--out", help="output path, or - for stdout")
    p.add_argument("--format", choices=["csv", "json"], dest="out_format")


def _read_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_CONFIG_PARSERS = {
    "mode": str, "b": int, "u": int, "mod": int, "channel": str,
    "channel_file": str, "tau_w": float, "tau_y": float, "seed": int,
    "weight_fmt": _parse_fmt, "input_fmt": _parse_fmt, "twiddle_fmt": _parse_fmt,
    "exact_fft": _parse_bool,
    "float": _parse_bool,
    "vectors_per_block": int, "workers": int,
    "target_errors": int, "max_vectors": int,
    "snr_start": float, "snr_stop": float, "snr_step": float,
    "target_ber": float, "tau_w_grid": str, "tau_y_grid": str,
    "activity_draws": int, "probe_cap": int,
    "out": str, "format": str, "clock_hz": float, "coherence": int,
}


def _effective(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags."""
    merged: dict = {}
    if getattr(args, "config", None):
        raw = _read_config_file(args.config)
        for key, text in raw.items():
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key if key != "float" else "float_mode"] = _CONFIG_PARSERS[key](text)
            if key == "format":
                merged["out_format"] = merged.pop("format")
    for key, val in vars(args).items():
        if key in ("config", "command"):
            continue
        if val is not None:
            merged[key] = val
    return merged


def _run_config(opt: dict) -> RunConfig:
    kwargs = {}
    for src, dst in [("b", "B"), ("u", "U"), ("mod", "M"), ("channel", "channel"),
                     ("channel_file", "channel_file"), ("tau_w", "tau_w"),
                     ("tau_y", "tau_y"), ("seed", "seed"), ("weight_fmt", "weight_fmt"),
                     ("input_fmt", "input_fmt"), ("twiddle_fmt", "twiddle_fmt"),
                     ("vectors_per_block", "vectors_per_block"), ("workers", "workers")]:
        if src in opt:
            kwargs[dst] = opt[src]
    if opt.get("exact_fft"):
        kwargs["exact_fft"] = True
    if opt.get("float_mode"):
        kwargs["quantized"] = False
    return RunConfig(**kwargs)


def _stop_rule(opt: dict) -> StopRule:
    return StopRule(**{k: opt[k] for k in ("target_errors", "max_vectors") if k in opt})


def _snr_list(opt: dict) -> list[float]:
    start = opt.get("snr_start", 0.0)
    stop = opt.get("snr_stop", start)
    step = opt.get("snr_step", 2.0)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("snr-start, snr-stop and snr-step must be finite")
    if step <= 0:
        raise ValueError("snr-step must be positive")
    # points from an integer count, not accumulated steps, so 0.1 steps do not drift
    count = max(0, math.ceil((stop + step / 2 - start) / step))
    return [round(start + i * step, 12) for i in range(count)]


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as f:
            f.write(text)


def cmd_ber(args: argparse.Namespace) -> int:
    opt = _effective(args)
    cfg = _run_config(opt)
    mode = opt.get("mode", "lmmse-spade")
    report = run_ber(cfg, _snr_list(opt), mode, _stop_rule(opt))
    _write_out(render_report(report, opt.get("out_format", "csv")), opt.get("out"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    opt = _effective(args)
    cfg = _run_config(opt)
    mode = opt.get("mode", "lmmse-spade")
    records = threshold_sweep(
        cfg,
        _parse_grid(opt.get("tau_w_grid")),
        _parse_grid(opt.get("tau_y_grid")),
        mode=mode,
        target_ber=opt.get("target_ber", 0.01),
        activity_draws=opt.get("activity_draws", 1000),
        probe_cap=opt.get("probe_cap", 100_000),
    )
    out = opt.get("out")
    if out is None or out == "-":
        raise ValueError("sweep needs --out path for its CSV artifact")
    emit_sweep(records, out)
    return 0


def cmd_opoint(args: argparse.Namespace) -> int:
    opt = _effective(args)
    cfg = _run_config(opt)
    mode = opt.get("mode", "lmmse-spade")
    op = snr_operating_point(cfg, mode, target_ber=opt.get("target_ber", 0.01),
                             probe_cap=opt.get("probe_cap", 200_000))
    text = "unreached\n" if op is None else f"{op!r}\n"
    _write_out(text, opt.get("out"))
    return 0


def cmd_datapath(args: argparse.Namespace) -> int:
    opt = _effective(args)
    u = opt.get("u", 16)
    mod = opt.get("mod", 16)
    b = opt.get("b", 64)
    clock = opt.get("clock_hz", 720e6)
    coherence = opt.get("coherence", 1000)
    latency = PipelineConfig(clock_hz=clock).latency(b)
    peak = throughput_bps(clock, u, mod)
    eff = effective_throughput(clock, u, mod, coherence, latency_cycles=latency)
    lines = [
        f"clock_hz={clock!r}",
        f"latency_cycles={latency}",
        f"cycles_per_coherence_block={u + coherence + latency}",
        f"peak_throughput_gbps={peak / 1e9!r}",
        f"effective_throughput_gbps={eff / 1e9!r}",
    ]
    _write_out("\n".join(lines) + "\n", opt.get("out"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spadesim",
                                     description="Sparsity-adaptive beamspace equalizer simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ber = sub.add_parser("ber", help="Monte Carlo BER over an SNR sweep")
    _add_common(p_ber)
    p_ber.add_argument("--snr-start", type=float)
    p_ber.add_argument("--snr-stop", type=float)
    p_ber.add_argument("--snr-step", type=float)
    p_ber.set_defaults(func=cmd_ber)

    p_sweep = sub.add_parser("sweep", help="threshold-pair sweep (activity vs operating point)")
    _add_common(p_sweep)
    p_sweep.add_argument("--tau-w-grid", help="comma-separated thresholds")
    p_sweep.add_argument("--tau-y-grid", help="comma-separated thresholds")
    p_sweep.add_argument("--target-ber", type=float)
    p_sweep.add_argument("--activity-draws", type=int)
    p_sweep.add_argument("--probe-cap", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    p_op = sub.add_parser("opoint", help="minimum SNR reaching a target BER")
    _add_common(p_op)
    p_op.add_argument("--target-ber", type=float)
    p_op.add_argument("--probe-cap", type=int)
    p_op.set_defaults(func=cmd_opoint)

    p_dp = sub.add_parser("datapath", help="cycle and throughput arithmetic")
    p_dp.add_argument("--config", help="key=value config file; flags override it")
    p_dp.add_argument("--b", type=int)
    p_dp.add_argument("--u", type=int)
    p_dp.add_argument("--mod", type=int)
    p_dp.add_argument("--clock-hz", type=float)
    p_dp.add_argument("--coherence", type=int,
                      help="vectors per coherence interval for effective throughput")
    p_dp.add_argument("--out")
    p_dp.set_defaults(func=cmd_datapath)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
