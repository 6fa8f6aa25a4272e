"""Experiment configuration: INI-style sectioned text -> model + estimation plan.

Format: one ``key = value`` per line under ``[section]`` headers.  Sections:

* ``process``      -- kind (palm_beta_ginibre, the only value: estimation
                      always uses the reduced Palm process), beta, and
                      radius, that of the window b(0, radius) of interferers
* ``receiver``     -- x, y coordinates of the receiver
* ``attenuation``  -- R, alpha
* ``fading``       -- kind plus ``FadingSpec`` parameters (bound, beta_a,
                      beta_b, c, gamma); a kind ignores those it does not use
* ``estimation``   -- estimator (crude | tilted | single_jump, the last the
                      Asmussen-Kroese conditional estimator, which has no
                      threshold to set; ``estimation.ESTIMATORS`` names
                      the fading kinds each takes), n_reps, x_grid (3 or
                      more levels), seed (non-negative)
* ``output``       -- directory

Other keys and sections are not read.  The tail of I_Lambda depends on
neither the noise power nor the SINR threshold, so ``[noise] w`` and
``[threshold] tau`` are among them.

Errors carry the file path plus the section/key and, when the line exists,
its line number.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

from .estimation import ESTIMATORS
from .fading import FADING_KINDS, FadingSpec
from .interference import NetworkModel


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


DEFAULTS = {
    "process": {"kind": "palm_beta_ginibre", "beta": "1.0", "radius": "2.0"},
    "receiver": {"x": "0.0", "y": "0.0"},
    "attenuation": {"R": "1.0", "alpha": "4.0"},
    "estimation": {"estimator": "crude", "n_reps": "1000", "seed": "0"},
    "output": {"directory": "."},
}


@dataclass
class EstimationPlan:
    estimator: str
    n_reps: int
    x_grid: list[float]
    seed: int


@dataclass
class ExperimentConfig:
    model: NetworkModel
    plan: EstimationPlan
    output_dir: Path

    @property
    def regime(self):
        """The model's tail regime, against which the slope is fitted."""
        return self.model.regime


def _line_of(text: str, section: str, key: str | None = None) -> int | None:
    """1-based line of a key inside its section (or of the section header)."""
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            if key is None and stripped == f"[{section}]":
                return i
            in_section = stripped == f"[{section}]"
        elif in_section and key is not None:
            name = stripped.split("=", 1)[0].strip()
            if name == key:
                return i
    return None


class _Reader:
    """Typed access to one parsed file with line-anchored error reporting."""

    def __init__(self, parser: configparser.ConfigParser, text: str, path):
        self.parser = parser
        self.text = text
        self.path = path

    def fail(self, section: str, key: str | None, msg: str):
        line = _line_of(self.text, section, key)
        loc = f"{self.path}:{line}" if line else str(self.path)
        where = f"[{section}] {key}" if key else f"[{section}]"
        raise ConfigError(f"{loc}: {where}: {msg}")

    def get(self, section: str, key: str) -> str:
        if self.parser.has_option(section, key):
            return self.parser.get(section, key)
        if section in DEFAULTS and key in DEFAULTS[section]:
            return DEFAULTS[section][key]
        self.fail(section, None, f"missing required key {key!r}")

    def get_float(self, section: str, key: str) -> float:
        raw = self.get(section, key)
        try:
            return float(raw)
        except ValueError:
            self.fail(section, key, f"not a number: {raw!r}")

    def get_int(self, section: str, key: str) -> int:
        raw = self.get(section, key)
        try:
            return int(raw)
        except ValueError:
            self.fail(section, key, f"not an integer: {raw!r}")

    def get_floats(self, section: str, key: str) -> list[float]:
        raw = self.get(section, key)
        try:
            return [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            self.fail(section, key, f"not a number list: {raw!r}")


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc})") from exc
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    rd = _Reader(parser, text, path)

    for section in ("fading", "estimation"):
        if not parser.has_section(section):
            raise ConfigError(f"{path}: missing required section [{section}]")

    kind = rd.get("process", "kind")
    if kind != "palm_beta_ginibre":
        rd.fail("process", "kind",
                f"unsupported process kind {kind!r}: estimation always uses "
                "the reduced Palm process (palm_beta_ginibre)")
    beta = rd.get_float("process", "beta")
    radius = rd.get_float("process", "radius")

    fkind = rd.get("fading", "kind")
    if fkind not in FADING_KINDS:
        rd.fail("fading", "kind",
                f"unknown fading kind {fkind!r}; choose from {FADING_KINDS}")
    # FadingSpec ignores the parameters its kind does not use
    fkw = {f.name: rd.get_float("fading", f.name) for f in fields(FadingSpec)
           if f.name != "kind" and parser.has_option("fading", f.name)}
    try:
        fading = FadingSpec(kind=fkind, **fkw)
    except ValueError as exc:
        rd.fail("fading", None, str(exc))

    receiver = complex(rd.get_float("receiver", "x"), rd.get_float("receiver", "y"))
    try:
        model = NetworkModel(
            beta=beta,
            radius=radius,
            receiver=receiver,
            atten_R=rd.get_float("attenuation", "R"),
            atten_alpha=rd.get_float("attenuation", "alpha"),
            fading=fading,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    estimator = rd.get("estimation", "estimator")
    if estimator not in ESTIMATORS:
        rd.fail("estimation", "estimator", f"unknown estimator {estimator!r}")
    if fkind not in ESTIMATORS[estimator]:
        rd.fail("estimation", "estimator",
                f"{estimator} does not take {fkind} fading; it takes "
                f"{ESTIMATORS[estimator]}")
    n_reps = rd.get_int("estimation", "n_reps")
    if n_reps <= 0:
        rd.fail("estimation", "n_reps", "must be positive")
    if not parser.has_option("estimation", "x_grid"):
        rd.fail("estimation", None, "missing required key 'x_grid'")
    x_grid = rd.get_floats("estimation", "x_grid")
    if any(b <= a for a, b in zip(x_grid, x_grid[1:])):
        rd.fail("estimation", "x_grid", "grid must be strictly increasing")
    if len(x_grid) < 3:
        rd.fail("estimation", "x_grid",
                "slope regression needs at least 3 grid points")
    if seed_override is not None:
        seed = seed_override
    else:
        seed = rd.get_int("estimation", "seed")
        if seed < 0:
            rd.fail("estimation", "seed", "must be non-negative")

    plan = EstimationPlan(estimator=estimator, n_reps=n_reps, x_grid=x_grid,
                          seed=seed)
    return ExperimentConfig(model=model, plan=plan,
                            output_dir=Path(rd.get("output", "directory")))
