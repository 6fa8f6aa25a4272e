"""RNG stream determinism and the pattern CSV round trip."""
import numpy as np
import pytest

from ginibrenet.patterns import (PointPattern, RngStream, pattern_csv_text,
                                 read_pattern_csv)


class TestRngStream:
    def test_same_seed_bit_identical(self):
        a = RngStream(99, 3).generator().random(1000)
        b = RngStream(99, 3).generator().random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(99, 0).generator().random(100)
        b = RngStream(99, 1).generator().random(100)
        assert not np.array_equal(a, b)

    def test_substream_offsets(self):
        s = RngStream(5, 10)
        assert s.substream(7) == RngStream(5, 17)


class TestPatternCsv:
    def _pattern(self):
        rng = RngStream(42).generator()
        pts = rng.normal(size=25) + 1j * rng.normal(size=25)
        return PointPattern(points=pts, window_radius=3.0,
                            process_kind="ginibre", beta=1.0, seed=42)

    def test_round_trip_bit_exact(self, tmp_path):
        pat = self._pattern()
        path = tmp_path / "pat.csv"
        path.write_text(pattern_csv_text(pat))
        back = read_pattern_csv(path)
        assert np.array_equal(back.points, pat.points)
        assert back.process_kind == pat.process_kind
        assert back.beta == pat.beta
        assert back.window_radius == pat.window_radius
        assert back.seed == pat.seed

    def test_empty_pattern_round_trip(self, tmp_path):
        pat = PointPattern(points=np.empty(0, complex),
                           window_radius=1.0, process_kind="poisson",
                           beta=1.0, seed=0)
        path = tmp_path / "empty.csv"
        path.write_text(pattern_csv_text(pat))
        assert len(read_pattern_csv(path)) == 0

    def test_malformed_files_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(ValueError, match="provenance"):
            read_pattern_csv(p)
        p.write_text("# process=ginibre beta=1.0 radius=2.0 seed=1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="header"):
            read_pattern_csv(p)

    def test_unknown_process_kind_rejected(self):
        with pytest.raises(ValueError, match="process kind"):
            PointPattern(points=np.empty(0, complex), window_radius=1.0,
                         process_kind="grid", beta=1.0, seed=0)
