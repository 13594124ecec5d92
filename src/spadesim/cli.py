"""Command-line interface: ber, sweep, opoint, and datapath subcommands.

Each option is declared once, in ``_OPTIONS``. Flag values arrive as text and
go through the same parser as config-file values, so both fail the same way.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, NamedTuple

from .datapath import PipelineConfig, effective_throughput, throughput_bps
from .equalizer import MODES
from .harness import (
    CHANNEL_KINDS,
    MAX_SNR_POINTS,
    REPORT_FORMATS,
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
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected T:F, got {text!r}")
    return QFormat(int(parts[0]), int(parts[1]))


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r} (use true/false, 1/0 or yes/no)")


def _parse_grid(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(","))


def _choice(values: tuple[str, ...]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in values:
            raise ValueError(f"{text!r} is not one of {', '.join(values)}")
        return text
    return parse


class _Option(NamedTuple):
    parse: Callable[[str], object]  # _parse_bool makes the flag a switch
    field: str | None  # the RunConfig field it sets
    help: str


_OPTIONS = {
    "mode": _Option(_choice(MODES), None, "one of " + ", ".join(MODES)),
    "b": _Option(int, "B", "basestation antennas (power of 4)"),
    "u": _Option(int, "U", "number of users"),
    "mod": _Option(int, "M", "QAM order (4/16/64/256)"),
    "channel": _Option(_choice(CHANNEL_KINDS), "channel", "one of " + ", ".join(CHANNEL_KINDS)),
    "channel_file": _Option(str, "channel_file", "path for --channel file"),
    "tau_w": _Option(float, "tau_w", "weight threshold"),
    "tau_y": _Option(float, "tau_y", "input threshold"),
    "seed": _Option(int, "seed", "master seed"),
    "weight_fmt": _Option(_parse_fmt, "weight_fmt", "weight format T:F"),
    "input_fmt": _Option(_parse_fmt, "input_fmt", "input format T:F"),
    "twiddle_fmt": _Option(_parse_fmt, "twiddle_fmt", "FFT twiddle format T:F"),
    "exact_fft": _Option(_parse_bool, "exact_fft", "exact DFT instead of the radix-4"),
    "float": _Option(_parse_bool, None, "disable all quantization (infinite-precision mode)"),
    "vectors_per_block": _Option(int, "vectors_per_block", "vectors per coherence block"),
    "workers": _Option(int, "workers", "worker threads"),
    "target_errors": _Option(int, None, "stop a point at this many bit errors"),
    "max_vectors": _Option(int, None, "stop a point at this many vectors"),
    "snr_start": _Option(float, None, "first SNR in dB"),
    "snr_stop": _Option(float, None, "last SNR in dB"),
    "snr_step": _Option(float, None, "SNR step in dB"),
    "tau_w_grid": _Option(_parse_grid, None, "comma-separated thresholds"),
    "tau_y_grid": _Option(_parse_grid, None, "comma-separated thresholds"),
    "target_ber": _Option(float, None, "target uncoded BER"),
    "activity_draws": _Option(int, None, "channel draws per activity measurement"),
    "probe_cap": _Option(int, None, "vectors per SNR probe at most"),
    "clock_hz": _Option(float, None, "clock frequency in Hz"),
    "coherence": _Option(int, None, "vectors per coherence interval for effective throughput"),
    "out": _Option(str, None, "output path, or - for stdout"),
    "format": _Option(_choice(REPORT_FORMATS), None, "one of " + ", ".join(REPORT_FORMATS)),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse(key: str, text: str):
    try:
        return _OPTIONS[key].parse(text)
    except ValueError as exc:
        raise ValueError(f"{_flag(key)}: {exc}") from None


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
            key = key.strip().replace("-", "_")
            if key in values:
                raise ValueError(f"config key {key!r} given twice")
            values[key] = val.strip()
    return values


def _effective(args: argparse.Namespace) -> dict:
    """Parsed options: the config file's, overridden by the flags given."""
    merged: dict = {}
    if getattr(args, "config", None):
        for key, text in _read_config_file(args.config).items():
            if key not in _COMMANDS[args.command][2]:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            merged[key] = _parse(key, text)
    for key, text in vars(args).items():
        if key in _OPTIONS and text is not None:
            # argparse passes the value of --flag=-- on as []
            merged[key] = _parse(key, "--" if text == [] else text)
    return merged


def _given(opt: dict, *keys: str) -> dict:
    """The options among ``keys`` the user gave; the library defaults the rest."""
    return {k: opt[k] for k in keys if k in opt}


def _run_config(opt: dict) -> RunConfig:
    kwargs = {o.field: opt[key] for key, o in _OPTIONS.items() if o.field and key in opt}
    if "float" in opt:
        kwargs["quantized"] = not opt["float"]
    return RunConfig(**kwargs)


def _snr_list(opt: dict) -> list[float]:
    start = opt.get("snr_start", 0.0)
    stop = opt.get("snr_stop", start)
    step = opt.get("snr_step", 2.0)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("snr-start, snr-stop and snr-step must be finite")
    if step <= 0:
        raise ValueError("snr-step must be positive")
    # points from an integer count, not accumulated steps, so 0.1 steps do not drift
    count = (stop + step / 2 - start) / step
    if count > MAX_SNR_POINTS:  # checked before the list is built; inf too
        raise ValueError(f"snr-start, snr-stop and snr-step give more than {MAX_SNR_POINTS} points")
    return [round(start + i * step, 12) for i in range(math.ceil(max(count, 0.0)))]


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as f:
            f.write(text)


def cmd_ber(opt: dict) -> int:
    report = run_ber(_run_config(opt), _snr_list(opt), opt.get("mode", "lmmse-spade"),
                     StopRule(**_given(opt, "target_errors", "max_vectors")))
    text = render_report(report, opt["format"]) if "format" in opt else render_report(report)
    _write_out(text, opt.get("out"))
    return 0


def cmd_sweep(opt: dict) -> int:
    out = opt.get("out")
    if out is None or out == "-":
        raise ValueError("sweep needs --out path for its CSV artifact")
    records = threshold_sweep(
        _run_config(opt),
        opt.get("tau_w_grid", default_grid()),
        opt.get("tau_y_grid", default_grid()),
        **_given(opt, "mode", "target_ber", "activity_draws", "probe_cap"),
    )
    emit_sweep(records, out)
    return 0


def cmd_opoint(opt: dict) -> int:
    op = snr_operating_point(_run_config(opt), opt.get("mode", "lmmse-spade"),
                             **_given(opt, "target_ber", "probe_cap"))
    _write_out("unreached\n" if op is None else f"{op!r}\n", opt.get("out"))
    return 0


def cmd_datapath(opt: dict) -> int:
    B, U, M = opt.get("b", RunConfig.B), opt.get("u", RunConfig.U), opt.get("mod", RunConfig.M)
    clock = opt.get("clock_hz", 720e6)
    coherence = opt.get("coherence", 1000)
    eff = effective_throughput(clock, U, M, coherence, B)  # checks B and U first, as RunConfig does
    peak = throughput_bps(clock, U, M)
    cycles = PipelineConfig().cycles(U, coherence, B)
    lines = [
        f"clock_hz={clock!r}",
        f"latency_cycles={PipelineConfig().latency(B)}",
        f"cycles_per_coherence_block={cycles}",
        f"peak_throughput_gbps={peak / 1e9!r}",
        f"effective_throughput_gbps={eff / 1e9!r}",
    ]
    _write_out("\n".join(lines) + "\n", opt.get("out"))
    return 0


_RUN_KEYS = ("mode", "b", "u", "mod", "channel", "channel_file", "tau_w", "tau_y", "seed",
             "weight_fmt", "input_fmt", "twiddle_fmt", "exact_fft", "float",
             "vectors_per_block", "workers", "out")

_VALUE_FLAGS = {"--config"} | {_flag(k) for k, o in _OPTIONS.items() if o.parse is not _parse_bool}

_COMMANDS = {
    "ber": (cmd_ber, "Monte Carlo BER over an SNR sweep",
            _RUN_KEYS + ("target_errors", "max_vectors", "format", "snr_start", "snr_stop",
                         "snr_step")),
    "sweep": (cmd_sweep, "threshold-pair sweep (activity vs operating point)",
              _RUN_KEYS + ("tau_w_grid", "tau_y_grid", "target_ber", "activity_draws",
                           "probe_cap")),
    "opoint": (cmd_opoint, "minimum SNR reaching a target BER",
               _RUN_KEYS + ("target_ber", "probe_cap")),
    "datapath": (cmd_datapath, "cycle and throughput arithmetic",
                 ("b", "u", "mod", "clock_hz", "coherence", "out")),
}


class _Parser(argparse.ArgumentParser):
    """Joins a number that starts with "-" to the value flag before it, as in --flag=value:
    argparse takes only -1 or -.5 for a number, and -1e1, -inf or -nan for a flag."""

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        for i in reversed(range(1, len(args))):
            if args[i - 1] in _VALUE_FLAGS and args[i].startswith("-"):
                try:
                    float(args[i])
                except ValueError:
                    continue
                args[i - 1:i + 1] = [f"{args[i - 1]}={args[i]}"]
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spadesim", allow_abbrev=False,
                     description="Sparsity-adaptive beamspace equalizer simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key in keys:
            opt = _OPTIONS[key]
            switch = dict(action="store_const", const="true") if opt.parse is _parse_bool else {}
            p.add_argument(_flag(key), help=opt.help, **switch)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_effective(args))
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
