"""Command-line front end: presets, key=value configs, and artifact files.

Commands map one-to-one onto the library layers: ``spectrum`` tabulates the
admissibility values, ``scale-grid`` reports the scale-discretization
deviation, ``rot-grid`` dumps a rotation grid, ``transform`` writes the
transform table of a seeded random field, and ``certify`` runs the full frame
check, exiting 0 on pass, 2 on fail, 1 on any configuration or runtime error.

Configuration comes from an INI-style key=value file (sections [run],
[profile], [scales], [rotations], [certify]) overridden by flags; a key or
section that no setting reads is an error.  Every output embeds the fully
resolved configuration, and rerunning an identical configuration reproduces
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from configparser import ConfigParser
from configparser import Error as ConfigError
from dataclasses import dataclass

from . import frame_verify, rotation_grid, scale_grid, transform, wavelet_spectra
from .wavelet_spectra import PRESET_NAMES, SpectralProfile, make_preset

log = logging.getLogger("sphereframes")


@dataclass
class RunConfig:
    """Fully resolved run parameters; validated eagerly at parse time."""

    command: str
    n: int = 2
    band_limit: int = 16
    seed: int = 0
    threads: int | None = None
    out: str = "."
    profile: SpectralProfile | None = None
    preset: str | None = None
    rho_max: float | None = None
    ratio: float = 1.2
    scale_count: int | None = None
    delta: tuple | None = None
    trials: int = 10
    tolerance: float = 0.1
    margin: float = 0.05
    max_elements: int = rotation_grid._MAX_CELLS

    def resolved(self) -> dict:
        prof = self.profile
        doc = {
            "command": self.command,
            "n": self.n,
            "band_limit": self.band_limit,
            "seed": self.seed,
            "threads": self.threads,
            "profile": None
            if prof is None
            else {
                "preset": self.preset,
                "a": prof.a,
                "b": prof.b,
                "c": prof.c,
                "d": prof.d,
                "q": list(prof.q),
                "amplitude": prof.amplitude,
            },
            "scales": {
                "rho_max": self.rho_max,
                "ratio": self.ratio,
                "count": self.scale_count,
            },
            "rotations": {"delta": list(self.delta) if self.delta else None},
            "certify": {
                "trials": self.trials,
                "tolerance": self.tolerance,
                "margin": self.margin,
                "max_elements": self.max_elements,
            },
        }
        return doc

    def worker_threads(self) -> int | None:
        """Threads for the transform: the requested count, else every core."""
        return self.threads if self.threads is not None else os.cpu_count()


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _profile_from_section(preset, n, section: dict) -> SpectralProfile:
    """The profile of a preset name, else of the section's explicit
    coefficients; the keys it reads are consumed from section."""
    d = int(section.pop("d", 0))
    if preset:
        name = preset.removesuffix("-zonal")
        if name != preset:
            d = 0
        order = section.pop("order", None)
        return make_preset(name, n, d=d, **({} if order is None else {"order": int(order)}))
    if "q" not in section:
        raise ValueError("profile needs either a preset name or explicit q coefficients")
    return SpectralProfile(
        a=float(section.pop("a", 1.0)),
        b=float(section.pop("b", 1.0)),
        c=float(section.pop("c", 1.0)),
        q=_parse_floats(section.pop("q")),
        d=d,
        amplitude=float(section.pop("amplitude", 1.0)),
    )


def _setting(flag, section: dict, key: str, default):
    """The flag if given, else the section's value, else default.  The key is
    consumed either way, so a key that a flag overrides still counts as read."""
    value = section.pop(key, default)
    return value if flag is None else flag


def load_config(args) -> RunConfig:
    """Merge the config file (if any) and the flag overrides, then validate.

    Each key is consumed as it is read; a key or section left over is an
    error, so a misspelt key cannot fall back to its default unnoticed.
    """
    sections: dict[str, dict] = {}
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file {args.config!r} not found")
        # no [DEFAULT] section copied into the others: each key has one home
        parser = ConfigParser(default_section="")
        try:
            parser.read(args.config)
        except ConfigError as exc:  # a line outside any section, a key given twice
            raise ValueError(f"config file {args.config!r}: {exc}") from None
        sections = {name: dict(parser[name]) for name in parser.sections()}
    read = {
        name: sections.pop(name, {})
        for name in ("run", "profile", "scales", "rotations", "certify")
    }
    run, prof_sec, scales, rots, cert = read.values()

    cfg = RunConfig(command=args.command)
    cfg.n = int(_setting(args.n, run, "n", cfg.n))
    cfg.band_limit = int(_setting(args.band_limit, run, "band_limit", cfg.band_limit))
    cfg.seed = int(_setting(args.seed, run, "seed", cfg.seed))
    threads = _setting(args.threads, run, "threads", cfg.threads)
    cfg.threads = int(threads) if threads not in (None, "") else None
    cfg.out = _setting(args.out, run, "out", cfg.out)

    cfg.preset = _setting(args.preset, prof_sec, "preset", cfg.preset)
    if args.command != "rot-grid" or cfg.preset or "q" in prof_sec:
        cfg.profile = _profile_from_section(cfg.preset, cfg.n, prof_sec)

    rho_max = scales.pop("rho_max", None)
    if rho_max is not None:
        cfg.rho_max = float(rho_max)
    cfg.ratio = float(_setting(args.ratio, scales, "ratio", cfg.ratio))
    count = _setting(args.scales, scales, "count", cfg.scale_count)
    cfg.scale_count = int(count) if count not in (None, "") else None

    delta = _setting(args.delta, rots, "delta", cfg.delta)
    if delta is not None:
        cfg.delta = tuple(delta) if not isinstance(delta, str) else _parse_floats(delta)
    cfg.max_elements = int(rots.pop("max_elements", cfg.max_elements))

    cfg.trials = int(_setting(args.trials, cert, "trials", cfg.trials))
    cfg.tolerance = float(_setting(args.tolerance, cert, "tolerance", cfg.tolerance))
    cfg.margin = float(cert.pop("margin", cfg.margin))

    unread = [f"[{name}]" for name in sections] + [
        f"[{name}] {key}" for name, section in read.items() for key in section
    ]
    if unread:
        raise ValueError(f"config has keys that no setting reads: {', '.join(unread)}")
    if (cfg.rho_max is None) != (cfg.scale_count is None):
        raise ValueError("an explicit scale grid needs both [scales] rho_max and count")
    if cfg.command == "certify" and cfg.rho_max is not None:
        raise ValueError("certify builds the scale grid from the profile; drop rho_max and count")
    if cfg.n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {cfg.n}")
    if cfg.band_limit < 1:
        raise ValueError(f"band limit must be >= 1, got {cfg.band_limit}")
    if cfg.ratio <= 1.0:
        raise ValueError(f"scale ratio must exceed 1, got {cfg.ratio}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {cfg.seed}")
    if cfg.profile is not None:
        cfg.profile.validate_positive(cfg.band_limit)
    return cfg


# Characters per write: texts go out in slices, never encoded whole at once.
_WRITE_SLICE = 2**20


def _write(cfg: RunConfig, name: str, *texts: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, name)
    with open(path, "w", newline="\n") as fh:
        for text in texts:
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start : start + _WRITE_SLICE])
    log.info("wrote %s", path)
    return path


def _config_comment(cfg: RunConfig) -> str:
    return "# config " + json.dumps(cfg.resolved(), separators=(",", ":")) + "\n"


def _scale_grid_from(cfg: RunConfig) -> scale_grid.ScaleGrid:
    if cfg.rho_max is not None:
        return scale_grid.ScaleGrid(cfg.rho_max, cfg.ratio, cfg.scale_count)
    return scale_grid.scale_grid_for_profile(
        cfg.n, cfg.profile, cfg.ratio, cfg.band_limit
    )


def cmd_spectrum(cfg: RunConfig) -> int:
    table = wavelet_spectra.build_beta_table(cfg.n, cfg.profile, cfg.band_limit)
    _write(cfg, "beta.csv", _config_comment(cfg), table.to_csv())
    doc = {
        "A": table.A,
        "B": table.B,
        "order": table.m,
        "values": [float(v) for v in table.values],
        "config": cfg.resolved(),
    }
    _write(cfg, "beta.json", json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_scale_grid(cfg: RunConfig) -> int:
    grid = _scale_grid_from(cfg)
    report = scale_grid.epsilon_report(cfg.n, cfg.profile, grid, cfg.band_limit)
    _write(cfg, "scale_report.csv", _config_comment(cfg), report.to_csv())
    doc = report.summary()
    doc["config"] = cfg.resolved()
    _write(cfg, "scale_report.json", json.dumps(doc, indent=2) + "\n")
    log.info("epsilon_hat = %.3e", report.epsilon_hat)
    return 0


def cmd_rot_grid(cfg: RunConfig) -> int:
    if cfg.delta is None:
        raise ValueError("rot-grid needs --delta (or [rotations] delta in the config)")
    grid = rotation_grid.build_rotation_grid(cfg.n, cfg.delta, cfg.max_elements)
    _write(cfg, "rotation_grid.csv", _config_comment(cfg), grid.to_csv())
    doc = grid.header()
    doc["total_weight"] = grid.total_weight
    doc["config"] = cfg.resolved()
    _write(cfg, "rotation_grid.json", json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_transform(cfg: RunConfig) -> int:
    if cfg.delta is None:
        raise ValueError("transform needs --delta (or [rotations] delta in the config)")
    m = wavelet_spectra.profile_order(cfg.profile)
    field = transform.random_bandlimited(cfg.n, cfg.band_limit, m, cfg.seed)
    scales = _scale_grid_from(cfg)
    rotations = rotation_grid.build_rotation_grid(cfg.n, cfg.delta, cfg.max_elements)
    table = transform.wavelet_analysis(
        cfg.n, cfg.profile, field, scales, rotations, threads=cfg.worker_threads()
    )
    _write(cfg, "transform.csv", _config_comment(cfg), table.to_csv())
    beta = wavelet_spectra.build_beta_table(cfg.n, cfg.profile, cfg.band_limit)
    doc = {
        "energy": transform.frame_energy(table),
        "oracle": transform.energy_identity_oracle(field, beta),
        "field_order": m,
        "scale_count": len(scales),
        "rotation_count": len(rotations),
        "config": cfg.resolved(),
    }
    _write(cfg, "transform.json", json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    if cfg.delta is None:
        raise ValueError("certify needs --delta (or [rotations] delta in the config)")
    report = frame_verify.certify_frame(
        cfg.n,
        cfg.profile,
        cfg.band_limit,
        cfg.ratio,
        cfg.delta,
        cfg.trials,
        cfg.seed,
        cfg.tolerance,
        cfg.margin,
        cfg.max_elements,
        cfg.worker_threads(),
    )
    _write(
        cfg,
        "frame_report.json",
        report.to_json(extra={"config": cfg.resolved()}) + "\n",
    )
    _write(cfg, "trial_ratios.csv", _config_comment(cfg), report.ratios_csv())
    log.info(
        "verdict %s (eps=%.3g, delta=%.3g)",
        "pass" if report.verdict else "fail",
        report.epsilon_hat,
        report.delta_hat,
    )
    return 0 if report.verdict else 2


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "scale-grid": cmd_scale_grid,
    "rot-grid": cmd_rot_grid,
    "transform": cmd_transform,
    "certify": cmd_certify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereframes",
        description="Construct and verify wavelet frames on the n-sphere.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--threads", type=int, help="worker threads")
    parser.add_argument("--preset", help=f"profile preset, one of {sorted(PRESET_NAMES)}")
    parser.add_argument("--n", type=int, help="sphere dimension")
    parser.add_argument("--band-limit", type=int, dest="band_limit")
    parser.add_argument("--delta", type=float, nargs="+", help="rotation caps, outer first")
    parser.add_argument("--ratio", type=float, help="scale grid ratio X0")
    parser.add_argument("--scales", type=int, help="scale step count")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--tolerance", type=float)
    return parser


# Built once: building adds a help formatter per option, about 0.4 ms, and
# parse_args returns a fresh Namespace, so the parser holds no run's state.
_PARSER = build_parser()


def main(argv=None) -> int:
    level = os.environ.get("SPHEREFRAMES_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING), format="%(message)s"
    )
    try:
        args = _PARSER.parse_args(argv)
        cfg = load_config(args)
        return _COMMANDS[cfg.command](cfg)
    except SystemExit as exc:
        # argparse error paths; map usage errors to exit code 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _PARSER.print_usage(sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
