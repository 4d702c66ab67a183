import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimspect import DimensionSpectrum, PointCloud, ValidationError
from dimspect.cli import main, parse_grid, parse_points_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_grid_range(self):
        assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_grid_single(self):
        assert parse_grid("1:1:1") == [1.0]

    def test_grid_comma(self):
        assert parse_grid("0.25,0.5,1") == [0.25, 0.5, 1.0]

    def test_grid_snaps_endpoint(self):
        grid = parse_grid("0:1:0.1")
        assert grid[-1] == 1.0 and len(grid) == 11

    def test_grid_comma_list_read_as_given(self):
        # only a range snaps to the endpoints; a comma list keeps its values,
        # and its repeats, save that -0 reads as 0
        assert parse_grid("1e-13,0.999999999999999") == [1e-13, 0.999999999999999]
        grid = parse_grid("-0,1")
        assert grid == [0.0, 1.0] and math.copysign(1.0, grid[0]) == 1.0
        with pytest.raises(ValidationError, match="duplicates"):
            parse_grid("0.5,0.5")
        with pytest.raises(ValidationError, match="duplicates"):
            parse_grid("0,1e-13,0")
        grid = parse_grid("1e-13:1:0.5")
        assert (grid[0], grid[-1]) == (0.0, 1.0)

    def test_grid_errors(self):
        with pytest.raises(ValidationError):
            parse_grid("0:1:0.25:9")
        with pytest.raises(ValidationError):
            parse_grid("0,2")

    @settings(max_examples=300, deadline=None)
    @given(
        spec=st.one_of(
            st.text(max_size=20),
            st.tuples(
                st.lists(
                    st.one_of(
                        st.sampled_from(
                            ["0", "1", ".5", "-0", "1e-3", "inf", "-inf", "nan", "1e308", " ", ""]
                        ),
                        st.floats().map(repr),
                        st.text(alphabet="0123456789.eE+-_ infaINFA", max_size=6),
                    ),
                    min_size=1,
                    max_size=4,
                ),
                st.sampled_from([":", ","]),
            ).map(lambda parts: parts[1].join(parts[0])),
        )
    )
    def test_grid_is_sorted_in_unit_interval_or_refused(self, spec):
        try:
            grid = parse_grid(spec)
        except ValidationError:
            return
        assert grid and all(type(v) is float and 0.0 <= v <= 1.0 for v in grid)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_points_text(self):
        cloud = parse_points_text("# header\n0.1, 0.2\n\n0.3 0.4\n")
        assert cloud.dimension_n == 2
        assert len(cloud) == 2

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3), data=st.data())
    def test_points_text_roundtrip(self, n, data):
        # repr'd coordinates, any mix of separators, blank lines and comments
        pts = data.draw(st.lists(st.tuples(*[st.floats(-1e300, 1e300)] * n), min_size=1, max_size=20))
        filler = st.lists(st.sampled_from(["", "  ", "# note", "\t# 1, 2"]), max_size=2)
        sep = st.sampled_from([",", " ", "\t", ", ", " ,\t"])
        lines = []
        for point in pts:
            lines += data.draw(filler)
            words = [data.draw(st.sampled_from(["", " "])) + repr(point[0])]
            words += [data.draw(sep) + repr(c) for c in point[1:]]
            lines.append("".join(words) + data.draw(st.sampled_from(["", " ", ",", "  # note"])))
        text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines + data.draw(filler))
        cloud, expected = parse_points_text(text), PointCloud.from_points(pts)
        assert cloud.dimension_n == n
        assert cloud.array.shape == expected.array.shape and (cloud.array == expected.array).all()


class TestSequenceCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "sequence", "--p", "1", "--grid", "0:1:0.25")
        assert code == 0
        assert out.splitlines() == [
            "theta,lower,upper,method",
            "0,0,0,exact",
            "0.25,0.2,0.2,exact",
            "0.5,0.3333333333,0.3333333333,exact",
            "0.75,0.4285714286,0.4285714286,exact",
            "1,0.5,0.5,exact",
        ]

    def test_single_theta(self, capsys):
        code, out, _ = run(capsys, "sequence", "--p", "2", "--grid", "1:1:1")
        assert code == 0
        assert out.splitlines()[1] == "1,0.3333333333,0.3333333333,exact"

    def test_negative_p_exits_2(self, capsys):
        code, _, err = run(capsys, "sequence", "--p", "-1", "--grid", "0:1:0.5")
        assert code == 2
        assert "positive" in err


class TestCarpetCommand:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "carpet.json"
        path.write_text('{"m":2,"n":3,"digits":[[0,0],[0,2],[1,1]]}')
        return str(path)

    def test_theta_zero_row_meets_at_hausdorff(self, capsys, spec_file):
        code, out, _ = run(capsys, "carpet", "--spec", spec_file, "--grid", "0:1:0.5")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "0"
        assert row[1] == row[2] == "1.34968382"

    def test_theta_one_row_bounds(self, capsys, spec_file):
        code, out, _ = run(capsys, "carpet", "--spec", spec_file, "--grid", "0:1:0.5")
        assert code == 0
        row = out.splitlines()[-1].split(",")
        assert row[0] == "1"
        assert row[1] == "1.360707312"  # entropy-slope lower bound
        assert row[2] == "1.369070246"  # box dimension

    def test_full_grid_all_twos(self, capsys, tmp_path):
        path = tmp_path / "full.json"
        path.write_text(
            json.dumps({"m": 2, "n": 3, "digits": [[p, q] for p in range(2) for q in range(3)]})
        )
        code, out, _ = run(capsys, "carpet", "--spec", str(path), "--grid", "0:1:0.5")
        assert code == 0
        for line in out.splitlines()[1:]:
            _, lower, upper, _ = line.split(",")
            assert lower == "2" and upper == "2"

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "carpet", "--spec", str(path), "--grid", "0:1:0.5")
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"m": ' + "9" * 5000 + ', "n": 3, "digits": [[0, 0]]}'],
        ids=["nested-100000-deep", "integer-of-5000-digits"],
    )
    def test_unparsable_json_exits_2(self, capsys, tmp_path, text):
        # RecursionError and int's digit limit (ValueError) used to escape with exit 1
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(capsys, "carpet", "--spec", str(path), "--grid", "0.5")
        assert code == 2
        assert err.startswith("dimspect: malformed carpet JSON") and len(err.splitlines()) == 1

    def test_duplicate_digits_exit_2(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"m":2,"n":3,"digits":[[0,0],[0,0]]}')
        code, _, _ = run(capsys, "carpet", "--spec", str(path), "--grid", "0:1:0.5")
        assert code == 2

    @pytest.mark.parametrize(
        "spec",
        ['{"m":2.9,"n":3,"digits":[[0,0],[1,1]]}', '{"m":2,"n":3,"digits":[[0],[1,1]]}'],
        ids=["fractional-m", "digit-not-a-pair"],
    )
    def test_malformed_numbers_exit_2(self, capsys, tmp_path, spec):
        path = tmp_path / "bad.json"
        path.write_text(spec)
        code, _, _ = run(capsys, "carpet", "--spec", str(path), "--grid", "0:1:0.5")
        assert code == 2


class TestEstimateCommand:
    def test_sequence_within_tolerance(self, capsys, tmp_path):
        points = tmp_path / "f1.txt"
        code, _, _ = run(
            capsys, "gen", "--family", "fp", "--p", "1", "--delta", "1e-4",
            "--theta-min", "0.5", "--out", str(points),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "estimate", "--points", str(points),
            "--grid", "0.5,1", "--deltas", "1e-2,1e-3,1e-4",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        theta_half = rows[1].split(",")
        assert abs(float(theta_half[1]) - 1.0 / 3.0) <= 0.05
        assert abs(float(theta_half[2]) - 1.0 / 3.0) <= 0.05

    def test_metadata_block(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.2\n0.9\n")
        code, out, _ = run(
            capsys, "estimate", "--points", str(points), "--grid", "0.5,1",
            "--deltas", "1e-2,1e-3,1e-4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["menu_size"] == 16
        assert "deltas" in doc["metadata"]

    def test_empty_points_exit_2(self, capsys, tmp_path):
        points = tmp_path / "empty.txt"
        points.write_text("# nothing here\n")
        code, _, _ = run(
            capsys, "estimate", "--points", str(points), "--grid", "0.5,1",
            "--deltas", "1e-2,1e-3,1e-4",
        )
        assert code == 2

    def test_single_point_zero_rows(self, capsys, tmp_path):
        points = tmp_path / "one.txt"
        points.write_text("0.42\n")
        code, out, _ = run(
            capsys, "estimate", "--points", str(points), "--grid", "0.5,1",
            "--deltas", "1e-2,1e-3,1e-4",
        )
        assert code == 0
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows[1].startswith("0.5,0,0,")

    def test_too_deep_grid_exit_4(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.9\n")
        code, _, _ = run(
            capsys, "estimate", "--points", str(points), "--grid", "0.05,1",
            "--deltas", "1e-2,1e-3,1e-4",
        )
        assert code == 4

    def test_repeated_theta_exits_2(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.5\n0.9\n")
        code, out, err = run(capsys, "estimate", "--points", str(points), "--grid", "0.5,0.5")
        assert code == 2 and out == ""
        assert err == "dimspect: theta grid contains duplicates\n"

    def test_theta_near_zero_is_not_theta_zero(self, capsys, tmp_path):
        # theta = 1e-13 is read as given: its band lies below MIN_SCALE for every delta
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.5\n0.9\n")
        code, out, err = run(capsys, "estimate", "--points", str(points), "--grid", "1e-13")
        assert code == 4 and out == ""
        assert err.startswith("dimspect: no admissible delta at theta=1e-13:")

    def test_empty_row_exits_4_before_the_threshold_is_read(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.5\n0.9\n")
        code, out, err = run(
            capsys, "estimate", "--points", str(points), "--grid", "0,0.05", "--threshold", "nan"
        )
        assert code == 4 and out == ""
        assert err.startswith("dimspect: no admissible delta at theta=0.05:")

    def test_estimate_falling_in_theta_exits_4(self, capsys, tmp_path):
        # the drift fit over deltas this coarse drops theta=1 below theta=.75:
        # a numeric-range refusal, not an internal fault
        points = tmp_path / "p.txt"
        points.write_text("0.028\n0.035\n0.37\n0.378\n0.995\n")
        code, out, err = run(
            capsys, "estimate", "--points", str(points), "--grid", "0.25,0.5,0.75,1",
            "--deltas", "1e-1,1e-2,1e-3",
        )
        assert code == 4
        assert out == ""
        assert "theta=1.0" in err and "[0.1, 0.01, 0.001]" in err and "invariant" not in err

    def test_json_roundtrip(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.5\n0.9\n")
        code, out, _ = run(
            capsys, "estimate", "--points", str(points), "--grid", "0.5,1",
            "--deltas", "1e-2,1e-3,1e-4", "--format", "json",
        )
        spectrum = DimensionSpectrum.from_json_dict(json.loads(out))
        again = DimensionSpectrum.from_json_dict(json.loads(json.dumps(spectrum.to_json_dict())))
        assert again == spectrum


class TestFrostmanCommand:
    def test_single_point_passes(self, capsys, tmp_path):
        points = tmp_path / "one.txt"
        points.write_text("0.42\n")
        code, out, _ = run(
            capsys, "frostman", "--points", str(points),
            "--s", "0.5", "--delta", "0.05", "--theta", "0.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["pass"] is True
        assert len(doc["measure"]["atoms"]) == 1

    def test_sequence_certificate(self, capsys, tmp_path):
        points = tmp_path / "f1.txt"
        run(capsys, "gen", "--family", "fp", "--p", "1", "--delta", "1e-2",
            "--out", str(points))
        code, out, _ = run(
            capsys, "frostman", "--points", str(points),
            "--s", "0.3", "--delta", "0.01", "--theta", "0.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["pass"] is True
        assert doc["constant_c"] > 0
        assert doc["report"]["entries"][0]["weak_band"] is False

    def test_narrow_band_flagged_weak(self, capsys, tmp_path):
        # s far above the box dimension can still pass on a narrow band,
        # but the certificate is flagged weak
        points = tmp_path / "f1.txt"
        run(capsys, "gen", "--family", "fp", "--p", "1", "--delta", "1e-2",
            "--out", str(points))
        code, out, _ = run(
            capsys, "frostman", "--points", str(points),
            "--s", "0.9", "--delta", "0.25", "--theta", "0.95",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["entries"][0]["weak_band"] is True

    def test_infinite_s_exits_2(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.5\n0.9\n")
        code, out, err = run(
            capsys, "frostman", "--points", str(points),
            "--s", "inf", "--delta", "0.01", "--theta", "0.5",
        )
        assert code == 2
        assert out == "" and "finite" in err

    def test_underflowing_base_mass_exits_2(self, capsys, tmp_path):
        # 2**(-13 * 400) is 0: refused by name before the cascade divides by it
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.2\n0.7\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "frostman", "--points", str(points),
                "--s", "400", "--delta", "0.01", "--theta", "0.5",
            )
        assert code == 2
        assert out == ""
        assert "s=400.0" in err and "base level m=13" in err

    @pytest.mark.parametrize("s, code", [("76", 0), ("77", 2), ("78", 2)])
    def test_subnormal_smallest_power_exits_2(self, capsys, tmp_path, s, code):
        # lo = 1e-4 and lo**s: normal at 76, subnormal at 77; at 78 (1e-312) the
        # constant used to overflow and the refusal blamed "constant c"
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.2\n0.7\n")
        got, out, err = run(
            capsys, "frostman", "--points", str(points),
            "--s", s, "--delta", "0.01", "--theta", "0.5",
        )
        assert got == code
        if code:
            assert out == "" and f"s={s}.0" in err and "lo=0.0001" in err
            assert "constant c" not in err
        else:
            assert math.isfinite(json.loads(out)["constant_c"])

    def test_range_too_narrow_exit_4(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.9\n")
        code, _, _ = run(
            capsys, "frostman", "--points", str(points),
            "--s", "0.3", "--delta", "0.01", "--theta", "1.0",
        )
        assert code == 4


class TestGenCommand:
    def test_fp_counts(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "fp", "--p", "1",
                           "--delta", "1e-2")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 41  # 4 * ceil(sqrt(100)) + the origin

    def test_flog(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "flog", "--delta", "1e-2")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert float(lines[-1]) == pytest.approx(1.0 / math.log(2.0))

    def test_carpet_points(self, capsys, tmp_path):
        path = tmp_path / "carpet.json"
        path.write_text('{"m":2,"n":3,"digits":[[0,0],[0,2],[1,1]]}')
        code, out, _ = run(capsys, "gen", "--family", "carpet-points",
                           "--spec", str(path), "--depth", "3")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 27

    def test_missing_p_exit_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--family", "fp", "--delta", "1e-2")
        assert code == 2


class TestExitCodes:
    def test_invariant_violation_maps_to_3(self, capsys, tmp_path, monkeypatch):
        import dimspect.cli as cli
        from dimspect import InvariantError

        def boom(*args, **kwargs):
            raise InvariantError("lower exceeds upper")

        monkeypatch.setattr(cli, "carpet_spectrum", boom)
        path = tmp_path / "carpet.json"
        path.write_text('{"m":2,"n":3,"digits":[[0,0],[0,2],[1,1]]}')
        code, _, err = run(capsys, "carpet", "--spec", str(path), "--grid", "0:1:0.5")
        assert code == 3
        assert "invariant" in err

    def test_missing_carpet_spec_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "gen", "--family", "carpet-points", "--spec", missing)
        assert code == 2
        assert out == ""
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    def test_missing_points_file_exits_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        code, _, err = run(capsys, "frostman", "--points", missing,
                           "--s", "0.5", "--delta", "0.05", "--theta", "0.5")
        assert code == 2
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    def test_undecodable_points_file_exits_2(self, capsys, tmp_path):
        points = tmp_path / "latin1.txt"
        points.write_bytes(b"\xff\xfe0.1\n")
        code, _, err = run(capsys, "estimate", "--points", str(points))
        assert code == 2
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    def test_out_into_missing_directory_exits_2(self, capsys, tmp_path):
        out = str(tmp_path / "no-such-dir" / "seq.csv")
        code, _, err = run(capsys, "sequence", "--p", "1", "--grid", "0:1:0.5", "--out", out)
        assert code == 2
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--grid", "0,1", "--deltas", "0.1,0.01,0.001"],
            ["frostman", "--s", "0.5", "--delta", "0.01", "--theta", "0.5"],
        ],
    )
    def test_overflowing_extent_exits_2(self, capsys, tmp_path, command):
        points = tmp_path / "huge.txt"
        points.write_text("-1e308\n0\n1e308\n")
        code, out, err = run(capsys, *command, "--points", str(points))
        assert code == 2 and out == ""
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("grid", ["0:1:1e-12", "0:inf:1"])
    def test_oversized_grid_exits_2(self, capsys, grid):
        # refused from the count of values, before any is built
        code, out, err = run(capsys, "sequence", "--p", "1", "--grid", grid)
        assert code == 2 and out == ""
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "family",
        [
            ["fp", "--p", "1", "--delta", "1e-300"],
            ["fp", "--p", "0.5", "--delta", "1e-6", "--theta-min", "0.25"],
            ["fp", "--p", "1", "--delta", "1e-300", "--theta-min", "0.01"],
            ["fp", "--p", "1e10", "--delta", "1e-300"],
            ["fp", "--p", "1", "--delta", "0"],
            ["fp", "--p", "1", "--delta", "-0.5"],
            ["flog", "--delta", "1e-300"],
        ],
    )
    def test_oversized_or_bad_generator_exits_2(self, capsys, family):
        # refused from the count of points, before any is built
        code, out, err = run(capsys, "gen", "--family", *family)
        assert code == 2 and out == ""
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_oversized_samples_exits_2(self, capsys, tmp_path, to_file):
        # refused before a probe is drawn, whether the report goes to stdout or --out
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.5\n0.9\n")
        target = tmp_path / "cert.json"
        code, out, err = run(
            capsys, "frostman", "--points", str(points),
            "--s", "0.5", "--delta", "0.01", "--theta", "0.5", "--samples", str(10**12),
            *(["--out", str(target)] if to_file else []),
        )
        assert code == 2 and out == ""
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1
        assert "ball_samples" in err and not target.exists()

    def test_oversized_menu_exits_2(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.5\n0.9\n")
        code, out, err = run(capsys, "estimate", "--points", str(points), "--menu", "100000000")
        assert code == 2 and out == ""
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    def test_menu_below_two_exits_2_on_a_theta_zero_cell(self, capsys, tmp_path):
        # theta = 0 cells are solved on the dyadic tree, which reads no menu
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.2\n0.7\n")
        code, out, err = run(
            capsys, "estimate", "--points", str(points), "--grid", "0", "--menu", "0"
        )
        assert code == 2 and out == ""
        assert err == "dimspect: need 2 to 1024 entries in the scale menu, got 0\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_2(self, capsys, tmp_path, threshold):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.5\n0.9\n")
        code, out, err = run(
            capsys, "estimate", "--points", str(points), "--threshold", threshold
        )
        assert code == 2 and out == ""
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    def test_ragged_points_file_exits_2(self, capsys, tmp_path):
        points = tmp_path / "ragged.txt"
        points.write_text("0.1\n0.2 0.3\n")
        code, _, err = run(capsys, "estimate", "--points", str(points))
        assert code == 2
        assert err.startswith("dimspect: ") and len(err.splitlines()) == 1

    def test_estimate_seed_flag_removed(self, capsys, tmp_path):
        points = tmp_path / "p.txt"
        points.write_text("0.1\n0.9\n")
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--points", str(points), "--seed", "0"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_estimate_byte_identical(self, tmp_path):
        import subprocess
        import sys

        points = tmp_path / "p.txt"
        points.write_text("\n".join(str(1.0 / k) for k in range(1, 200)) + "\n0.0\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "dimspect.cli", "estimate",
                 "--points", str(points), "--grid", "0.5,1",
                 "--deltas", "1e-2,1e-3,1e-4", "--out", str(out)],
                check=True,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_frostman_byte_identical(self, tmp_path):
        import subprocess
        import sys

        points = tmp_path / "p.txt"
        points.write_text("\n".join(str(1.0 / k) for k in range(1, 41)) + "\n0.0\n")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "dimspect.cli", "frostman",
                 "--points", str(points), "--s", "0.3", "--delta", "0.01",
                 "--theta", "0.5", "--seed", "7", "--out", str(out)],
                check=True,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# Every number the fuzzer passes: non-finite, signed zeros, the smallest
# subnormal, the largest magnitudes (10**400 is past the float range) and
# a few plain values.
FUZZ_NUMBERS = ["nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e308", str(10**400), "-1", "0.5", "2"]


@st.composite
def cli_argvs(draw, points: str, spec: str) -> list[str]:
    """An argv for one subcommand with every number drawn from FUZZ_NUMBERS.

    Options are written --name=value, so a value starting with '-' is not
    read as an option.  Grids are comma lists only: a start:stop:step grid
    with a tiny step is a legal 10**6-theta job.
    """
    number = st.sampled_from(FUZZ_NUMBERS)
    numbers = st.lists(number, min_size=1, max_size=3).map(",".join)

    def options(**choices) -> list[str]:
        return [f"--{name.replace('_', '-')}={draw(values)}" for name, values in choices.items()
                if draw(st.booleans())]

    command = draw(st.sampled_from(["sequence", "carpet", "estimate", "frostman", "gen"]))
    if command == "sequence":
        return [command, f"--p={draw(number)}", f"--grid={draw(numbers)}"]
    if command == "carpet":
        return [command, f"--spec={spec}", f"--grid={draw(numbers)}", *options(assouad=number)]
    if command == "estimate":
        return [command, f"--points={points}", f"--grid={draw(numbers)}",
                *options(deltas=numbers, threshold=number, menu=number)]
    if command == "frostman":
        return [command, f"--points={points}", f"--s={draw(number)}", f"--delta={draw(number)}",
                f"--theta={draw(number)}", *options(samples=number, seed=number)]
    family = draw(st.sampled_from(["fp", "flog", "carpet-points"]))
    if family == "fp":
        return [command, "--family=fp", *options(p=number, delta=number, theta_min=number)]
    if family == "flog":
        return [command, "--family=flog", *options(delta=number)]
    return [command, "--family=carpet-points", f"--spec={spec}", *options(depth=number)]


class TestCliFuzz:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        (root / "p.txt").write_text("0.1\n0.5\n0.9\n")
        (root / "carpet.json").write_text('{"m":2,"n":3,"digits":[[0,0],[0,2],[1,1]]}')
        return str(root / "p.txt"), str(root / "carpet.json")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_documented_exit_codes(self, inputs, data):
        argv = data.draw(cli_argvs(*inputs), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing an option
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        if code:
            assert out.getvalue() == "", argv
            assert err.getvalue().strip(), argv
