"""Point patterns, seeded RNG streams and the pattern CSV format."""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROCESS_KINDS = ("ginibre", "beta_ginibre", "palm_beta_ginibre", "poisson")


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

    Identical (master_seed, stream_id) pairs yield bit-identical output;
    distinct stream ids are statistically independent (SeedSequence spawning).
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=self.master_seed,
                                   spawn_key=(self.stream_id,))))

    def child_generator(self, index: int) -> np.random.Generator:
        """The generator of child ``index``: spawn key (stream_id, index),
        the key ``SeedSequence.spawn`` gives the stream's own seed sequence,
        so no child shares a seed sequence with any stream."""
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=self.master_seed,
                                   spawn_key=(self.stream_id, index))))

    def substream(self, offset: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_id + offset)


@dataclass
class PointPattern:
    """A finite simple point configuration on the origin-centred disk of
    radius ``window_radius``, with provenance metadata."""

    points: np.ndarray  # complex positions
    window_radius: float
    process_kind: str
    beta: float
    seed: int

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        if self.process_kind not in PROCESS_KINDS:
            raise ValueError(f"unknown process kind {self.process_kind!r}")

    def __len__(self) -> int:
        return len(self.points)


_HEADER_RE = re.compile(
    r"#\s*process=(?P<kind>\S+)\s+beta=(?P<beta>\S+)\s+radius=(?P<radius>\S+)\s+seed=(?P<seed>\S+)")


def pattern_csv_text(pattern: PointPattern) -> str:
    """CSV with a provenance comment line, then an x,y header and one row per point.

    Coordinates are written with 17 significant digits so a read-back is
    bit-exact.
    """
    lines = [
        f"# process={pattern.process_kind} beta={pattern.beta!r} "
        f"radius={pattern.window_radius!r} seed={pattern.seed}",
        "x,y",
    ]
    lines += [f"{p.real:.17g},{p.imag:.17g}" for p in pattern.points]
    return "\n".join(lines) + "\n"


def read_pattern_csv(path: str | Path) -> PointPattern:
    text = Path(path).read_text().strip().splitlines()
    if not text or not text[0].startswith("#"):
        raise ValueError(f"{path}: missing provenance comment line")
    m = _HEADER_RE.match(text[0])
    if m is None:
        raise ValueError(f"{path}: malformed provenance line {text[0]!r}")
    if len(text) < 2 or text[1].strip() != "x,y":
        raise ValueError(f"{path}: missing x,y header")
    pts = []
    for row in text[2:]:
        xs, ys = row.split(",")
        pts.append(complex(float(xs), float(ys)))
    return PointPattern(
        points=np.array(pts, dtype=complex),
        window_radius=float(m.group("radius")),
        process_kind=m.group("kind"),
        beta=float(m.group("beta")),
        seed=int(m.group("seed")),
    )
