"""Experiment presets, sweep execution, and CSV emission.

The built-in presets mirror the depletion experiments: a tie-bit
manipulation sweep and a quit-and-retry sweep on a two-device pair with
minute-scale groups, and attacker-ratio sweeps over five- and ten-device
populations with hour-scale groups.  A sweep crosses every grid value
with every requested defense mode, runs one simulation per seed in a
consecutive block, and reports the victim's depletion time.  Rows come
back ordered by grid value, then mode, and serialize to CSV bytes that
are identical from run to run.

``main`` is the console entry point: pick a preset with ``--experiment``
or describe a custom sweep in a key=value config file via ``--config``.
"""

from __future__ import annotations

import argparse
import dataclasses
import numbers
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from .learning import SECONDS_PER_DAY
from .simulation import (
    DEFAULT_RETRY_CAP,
    HOUR_SCHEDULE,
    MINUTE_SCHEDULE,
    AttackProfile,
    DefenseMode,
    DeviceConfig,
    InvalidConfig,
    Schedule,
    run,
)

_SWEEPS = ("tbb_strength", "r_strength", "attacker_ratio")

STRENGTH_GRID = tuple(round(i / 10, 1) for i in range(11))
RATIO_GRID = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a grid of attack parameters crossed with defense modes.

    The defaults are the ``var_tbb_strength`` preset; the other presets,
    config files and command-line flags override them.
    """

    device_count: int = 2
    modes: tuple[DefenseMode, ...] = tuple(DefenseMode)
    sweep: str = "tbb_strength"
    grid: tuple[float, ...] = STRENGTH_GRID
    seeds: int = 10
    seed_base: int = 0
    horizon_days: int = 400
    schedule: Schedule = MINUTE_SCHEDULE
    tbb_strength: float = 1.0
    r_strength: float = 0.0
    retry_cap: int = DEFAULT_RETRY_CAP

    def __post_init__(self) -> None:
        if not isinstance(self.device_count, numbers.Integral) or self.device_count < 2:
            raise InvalidConfig(f"device_count must be a whole number >= 2: {self.device_count}")
        if not self.modes:
            raise InvalidConfig("no defense modes requested")
        if not all(isinstance(m, DefenseMode) for m in self.modes):
            raise InvalidConfig(f"modes must be DefenseMode values: {self.modes!r}")
        if len(set(self.modes)) != len(self.modes):
            raise InvalidConfig(f"duplicate defense modes: {[m.value for m in self.modes]}")
        if self.sweep not in _SWEEPS:
            raise InvalidConfig(f"unknown sweep variable {self.sweep!r}, expected one of {_SWEEPS}")
        if not self.grid:
            raise InvalidConfig("sweep grid cannot be empty")
        for value in self.grid:
            if not (isinstance(value, numbers.Real) and 0.0 <= value <= 1.0):
                raise InvalidConfig(f"grid value not a number in [0, 1]: {value!r}")
        if not isinstance(self.seeds, numbers.Integral) or self.seeds < 1:
            raise InvalidConfig(f"seeds must be a whole number >= 1: {self.seeds}")
        if not isinstance(self.seed_base, numbers.Integral):
            raise InvalidConfig(f"seed_base must be a whole number: {self.seed_base}")
        if not isinstance(self.horizon_days, numbers.Integral) or self.horizon_days < 1:
            raise InvalidConfig(f"horizon_days must be a whole number >= 1: {self.horizon_days}")
        if not isinstance(self.schedule, Schedule):
            raise InvalidConfig(f"schedule must be a Schedule: {self.schedule!r}")
        # the sweep overwrites one of these in every cell, but a bad value
        # fails here all the same
        AttackProfile(self.tbb_strength, self.r_strength, self.retry_cap)


_RATIO_SWEEP = dict(modes=(DefenseMode.STANDARD, DefenseMode.LEARNING),
                    sweep="attacker_ratio", grid=RATIO_GRID, schedule=HOUR_SCHEDULE)

# preset name -> overrides of ExperimentConfig's defaults
_PRESETS: dict[str, dict[str, object]] = {
    "var_tbb_strength": {},
    "var_r_strength": dict(sweep="r_strength", tbb_strength=0.5),
    "attacker_ratio_5": dict(_RATIO_SWEEP, device_count=5),
    "attacker_ratio_10": dict(_RATIO_SWEEP, device_count=10),
}

PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class ResultRow:
    """Victim depletion days, one per seed, for one (grid value, defense mode) cell."""

    sweep_value: float
    mode: DefenseMode
    seed_days: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.seed_days:
            raise ValueError("a result row needs at least one seed value")

    @property
    def mean_days(self) -> float:
        return statistics.fmean(self.seed_days)

    @property
    def stddev_days(self) -> float:
        """Sample standard deviation; 0.0 for a single seed."""
        return statistics.stdev(self.seed_days) if len(self.seed_days) > 1 else 0.0


def preset(name: str) -> ExperimentConfig:
    """Built-in experiment configuration by name."""
    if name not in _PRESETS:
        raise InvalidConfig(f"unknown experiment preset {name!r}, "
                            f"expected one of {PRESET_NAMES}")
    return ExperimentConfig(**_PRESETS[name])  # type: ignore[arg-type]


def build_devices(cfg: ExperimentConfig, mode: DefenseMode,
                  value: float) -> list[DeviceConfig]:
    """Device population for one grid cell.

    Device 0 is always the honest victim.  Strength sweeps field a single
    attacker; in the two-device case the victim never initiates, so the
    attacker alone drives the schedule.  Ratio sweeps convert the grid
    value into an attacker headcount among the victim's peers (rounding
    half up) and schedule every device.
    """
    tbb, quit_rate = cfg.tbb_strength, cfg.r_strength
    ratio = None
    if cfg.sweep == "tbb_strength":
        tbb = value
    elif cfg.sweep == "r_strength":
        quit_rate = value
    else:
        ratio = value
    others = cfg.device_count - 1
    attackers = 1 if ratio is None else int(ratio * others + 0.5)
    attack = AttackProfile(tbb_strength=tbb, r_strength=quit_rate,
                           retry_cap=cfg.retry_cap)
    victim_schedule = None if ratio is None and cfg.device_count == 2 else cfg.schedule
    devices = [DeviceConfig("victim", defense=mode, schedule=victim_schedule)]
    for i in range(attackers):
        devices.append(DeviceConfig(f"attacker{i}", schedule=cfg.schedule,
                                    attack=attack))
    for i in range(others - attackers):
        devices.append(DeviceConfig(f"peer{i}", defense=mode,
                                    schedule=cfg.schedule))
    return devices


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Execute the sweep; one simulation per (grid value, mode, seed).

    A victim still alive at the horizon is reported as the horizon in
    days, so censored runs lower-bound the mean instead of skewing it.
    """
    horizon = cfg.horizon_days * SECONDS_PER_DAY
    rows = []
    for value in cfg.grid:
        for mode in cfg.modes:
            days = []
            for offset in range(cfg.seeds):
                result = run(build_devices(cfg, mode, value), horizon=horizon,
                             seed=cfg.seed_base + offset)
                depleted = result.device("victim").depletion_day
                days.append(depleted if depleted is not None else float(cfg.horizon_days))
            rows.append(ResultRow(value, mode, tuple(days)))
    return rows


def emit_csv(rows: list[ResultRow]) -> bytes:
    """Serialize rows deterministically; same rows, same bytes."""
    if rows:
        count = len(rows[0].seed_days)
        for row in rows:
            if len(row.seed_days) != count:
                raise InvalidConfig("rows disagree on seed count")
        header = ("sweep,mode,mean_days,stddev_days,"
                  + ",".join(f"seed_{i}" for i in range(count)))
    else:
        header = "sweep,mode,mean_days,stddev_days"
    lines = [header]
    for row in rows:
        cells = [repr(float(row.sweep_value)), row.mode.value,
                 f"{row.mean_days:.6f}", f"{row.stddev_days:.6f}"]
        cells.extend(f"{d:.6f}" for d in row.seed_days)
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("ascii")


def _parse_modes(text: str) -> tuple[DefenseMode, ...]:
    by_value = {m.value: m for m in DefenseMode}
    modes = []
    for token in text.split(","):
        token = token.strip()
        if token not in by_value:
            raise InvalidConfig(f"unknown defense mode {token!r}, "
                                f"expected one of {sorted(by_value)}")
        modes.append(by_value[token])
    return tuple(modes)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(token) for token in text.split(","))
    except ValueError:
        raise InvalidConfig(f"grid must be comma-separated numbers: {text!r}") from None


def _parse_schedule(text: str) -> Schedule:
    if text == "minute":
        return MINUTE_SCHEDULE
    if text == "hour":
        return HOUR_SCHEDULE
    try:
        period, duration = (int(part) for part in text.split("/"))
    except ValueError:
        raise InvalidConfig(f"schedule must be 'minute', 'hour', or "
                            f"'<period>/<duration>' in seconds: {text!r}") from None
    # Schedule's own diagnostic, an InvalidConfig, passes through
    return Schedule(period, duration)


# a config file may set every field; those without a parser of their own
# parse with their default's type
_CONFIG_PARSERS = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}
_CONFIG_PARSERS.update(modes=_parse_modes, grid=_parse_grid, schedule=_parse_schedule)


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Build a configuration from key=value lines.

    Unset keys keep ``ExperimentConfig``'s defaults, which are the
    ``var_tbb_strength`` preset.  ``#`` starts a comment; keys may not repeat.
    """
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise InvalidConfig(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise InvalidConfig(f"line {lineno}: unknown key {key!r}, "
                                f"expected one of {sorted(_CONFIG_PARSERS)}")
        if key in overrides:
            raise InvalidConfig(f"line {lineno}: duplicate key {key!r}")
        try:
            overrides[key] = parser(value)
        except InvalidConfig as exc:
            raise InvalidConfig(f"line {lineno}: {exc}") from None
        except ValueError:
            raise InvalidConfig(f"line {lineno}: bad value for {key}: {value!r}") from None
    return ExperimentConfig(**overrides)  # type: ignore[arg-type]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wfdsim",
        description="Run battery-depletion experiments and emit CSV.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--experiment", choices=PRESET_NAMES,
                        help="built-in experiment preset")
    source.add_argument("--config", metavar="PATH",
                        help="key=value config file describing a custom sweep")
    parser.add_argument("--modes", metavar="LIST",
                        help="comma-separated defense modes, e.g. S,L")
    parser.add_argument("--seeds", type=int, metavar="N",
                        help="seeds per grid cell")
    parser.add_argument("--seed-base", type=int, metavar="N",
                        help="first seed of the consecutive block")
    parser.add_argument("--horizon-days", type=int, metavar="N",
                        help="simulated days per run")
    parser.add_argument("--out", metavar="PATH",
                        help="write CSV here instead of stdout")
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                raise InvalidConfig(f"cannot read config file: {exc}") from None
            cfg = parse_experiment_config(text)
        else:
            cfg = preset(args.experiment)
        overrides: dict[str, object] = {}
        for name in ("modes", "seeds", "seed_base", "horizon_days"):
            value = getattr(args, name)
            if value is not None:
                overrides[name] = _parse_modes(value) if name == "modes" else value
        cfg = dataclasses.replace(cfg, **overrides)
        payload = emit_csv(run_experiment(cfg))
    except InvalidConfig as exc:
        print(f"wfdsim: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        try:
            Path(args.out).write_bytes(payload)
        except OSError as exc:
            print(f"wfdsim: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.buffer.write(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
