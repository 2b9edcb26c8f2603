import numpy as np
import pytest

from mrfhcf import (COMPARE_HEADER, TRACE_HEADER, FileFormatError, Image,
                    TraceRow, make_checkerboard, parse_config, read_mrfl,
                    read_mrfllr, read_pgm, write_compare_csv, write_mrfl,
                    write_mrfllr, write_pgm, write_trace_csv)


def test_pgm_round_trip(tmp_path):
    image = make_checkerboard(13, 9, 3, 20, 240, 8.0, seed=5)
    path = tmp_path / "board.pgm"
    write_pgm(path, image)
    back = read_pgm(path)
    assert np.array_equal(back.pixels, image.pixels)
    first = path.read_bytes()
    write_pgm(path, back)
    assert path.read_bytes() == first


def test_pgm_header_tolerates_comments_and_whitespace(tmp_path):
    path = tmp_path / "odd.pgm"
    raster = bytes(range(12))
    path.write_bytes(b"P5\n# a comment\n 4 # inline\n3\n255\n" + raster)
    image = read_pgm(path)
    assert image.width == 4 and image.height == 3
    assert image.pixels.ravel().tolist() == list(range(12))


def test_pgm_maxval_range(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 1\n100\n\x00\x64")
    assert read_pgm(path).pixels.tolist() == [[0, 100]]
    path.write_bytes(b"P5\n2 1\n300\n\x00\x64")
    with pytest.raises(FileFormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 1\n0\n\x00\x64")
    with pytest.raises(FileFormatError):
        read_pgm(path)


def test_pgm_rejects_pixels_above_the_declared_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 1\n100\n\xc8\xff")
    with pytest.raises(FileFormatError, match="maxval"):
        read_pgm(path)


def test_pgm_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3")
    with pytest.raises(FileFormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02")
    with pytest.raises(FileFormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03\x04")
    with pytest.raises(FileFormatError):
        read_pgm(path)


def edge_sites(w, h):
    return (w - 1) * h + w * (h - 1)


def test_mrfllr_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    llr = rng.uniform(-5.0, 5.0, size=edge_sites(4, 3))
    llr[0] = 0.1 + 0.2
    path = tmp_path / "values.mrfllr"
    write_mrfllr(path, 4, 3, llr)
    width, height, back = read_mrfllr(path)
    assert (width, height) == (4, 3)
    assert np.array_equal(back, llr)


def test_mrfllr_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.mrfllr"
    path.write_text("WRONG 1\n2 2\n0\n0\n0\n0\n")
    with pytest.raises(FileFormatError, match=":1:"):
        read_mrfllr(path)
    path.write_text("MRFLLR 1\n2\n0\n0\n0\n0\n")
    with pytest.raises(FileFormatError, match=":2:"):
        read_mrfllr(path)
    path.write_text("MRFLLR 1\n2 2\n0\nbogus\n0\n0\n")
    with pytest.raises(FileFormatError, match=":4:"):
        read_mrfllr(path)
    path.write_text("MRFLLR 1\n2 2\n0\nnan\n0\n0\n")
    with pytest.raises(FileFormatError):
        read_mrfllr(path)
    path.write_text("MRFLLR 1\n2 2\n0\n0\n0\n")
    with pytest.raises(FileFormatError, match="4"):
        read_mrfllr(path)


def test_mrfl_round_trip_and_permutation(tmp_path):
    labels = np.array([1, 0, 1, 1, 0])
    path = tmp_path / "labels.mrfl"
    write_mrfl(path, labels)
    width, height, back = read_mrfl(path)
    assert (width, height) == (0, 0)
    assert back.tolist() == labels.tolist()
    shuffled = ["MRFL 1", "0 0 5", "3 1", "0 1", "4 0", "2 1", "1 0"]
    path.write_text("\n".join(shuffled) + "\n")
    _w, _h, again = read_mrfl(path)
    assert again.tolist() == labels.tolist()


def test_mrfl_rejects_inconsistent_site_lists(tmp_path):
    path = tmp_path / "bad.mrfl"
    path.write_text("MRFL 1\n0 0 2\n0 1\n0 0\n")
    with pytest.raises(FileFormatError, match=":4:"):
        read_mrfl(path)
    path.write_text("MRFL 1\n0 0 2\n0 1\n")
    with pytest.raises(FileFormatError):
        read_mrfl(path)
    for label in ("-2", "9223372036854775808", "18446744073709551616"):  # negative or past int64
        path.write_text(f"MRFL 1\n0 0 2\n0 1\n1 {label}\n")
        with pytest.raises(FileFormatError,
                           match=":4: label must be a non-negative 64-bit integer$"):
            read_mrfl(path)
    path.write_text("MRFL 1\n5 5 7\n" + "".join(f"{s} 0\n" for s in range(7)))
    with pytest.raises(FileFormatError):
        read_mrfl(path)


def test_mrfl_refuses_a_site_count_past_its_body_before_allocating(tmp_path):
    # 10**12 labels would take 8 TB; the two body lines can hold at most two
    path = tmp_path / "huge.mrfl"
    path.write_text("MRFL 1\n0 0 1000000000000\n0 0\n\n")
    with pytest.raises(FileFormatError, match=f"^{path}: 999999999999 sites missing a label$"):
        read_mrfl(path)


def test_mrfl_lattice_dims_round_trip(tmp_path):
    path = tmp_path / "lat.mrfl"
    labels = np.zeros(4, dtype=np.int64)
    write_mrfl(path, labels, width=2, height=2)
    width, height, back = read_mrfl(path)
    assert (width, height) == (2, 2)
    assert back.tolist() == [0, 0, 0, 0]


def test_mrfllr_bytes_are_pinned(tmp_path):
    path = tmp_path / "values.mrfllr"
    write_mrfllr(path, 2, 2, [0.1 + 0.2, -2, 5e-324, -0.0])
    assert path.read_bytes() == b"MRFLLR 1\n2 2\n0.30000000000000004\n-2.0\n5e-324\n-0.0\n"


@pytest.mark.parametrize("dims, expected", [
    ((2, 2), b"MRFL 1\n2 2 4\n0 1\n1 0\n2 0\n3 2\n"),
    ((0, 0), b"MRFL 1\n0 0 4\n0 1\n1 0\n2 0\n3 2\n"),
])
def test_mrfl_bytes_are_pinned(tmp_path, dims, expected):
    path = tmp_path / "labels.mrfl"
    write_mrfl(path, np.array([1, 0, 0, 2]), *dims)
    assert path.read_bytes() == expected


# (reader, file text, message after the path) for every header and dimension-line error
HEADER_ERRORS = [
    (read_mrfllr, "", ":1: expected header 'MRFLLR 1'"),
    (read_mrfllr, "MRFL 1\n2 2\n", ":1: expected header 'MRFLLR 1'"),
    (read_mrfllr, "MRFLLR 1\n", ":2: missing dimensions line"),
    (read_mrfllr, "MRFLLR 1\n2\n0\n", ":2: expected 'width height'"),
    (read_mrfllr, "MRFLLR 1\n2 2 4\n0\n", ":2: expected 'width height'"),
    (read_mrfllr, "MRFLLR 1\n2 x\n0\n", ":2: expected 'width height'"),
    (read_mrfllr, "MRFLLR 1\n1 5\n0\n", ":2: dimensions must be at least 2x2"),
    (read_mrfl, "", ":1: expected header 'MRFL 1'"),
    (read_mrfl, " MRFLLR 1\n0 0 1\n0 0\n", ":1: expected header 'MRFL 1'"),
    (read_mrfl, "MRFL 1\n", ":2: missing dimensions line"),
    (read_mrfl, "MRFL 1\n\n0 0\n", ":2: expected 'width height num_sites'"),
    (read_mrfl, "MRFL 1\n0 0\n0 0\n", ":2: expected 'width height num_sites'"),
    (read_mrfl, "MRFL 1\n0 0 1.0\n0 0\n", ":2: expected 'width height num_sites'"),
    (read_mrfl, "MRFL 1\n0 0 0\n", ":2: num_sites must be positive"),
    (read_mrfl, "MRFL 1\n0 2 4\n0 0\n",
     ":2: dimensions must be at least 2x2 (or 0 0 for non-lattice fields)"),
    (read_mrfl, "MRFL 1\n2 2 5\n0 0\n", ":2: a 2x2 image has 4 sites, not 5"),
]


@pytest.mark.parametrize("reader, text, message", HEADER_ERRORS)
def test_header_and_dimension_errors_are_pinned(tmp_path, reader, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(FileFormatError) as info:
        reader(path)
    assert str(info.value) == f"{path}{message}"


def test_blank_body_lines_are_skipped_and_still_numbered(tmp_path):
    path = tmp_path / "values.mrfllr"
    path.write_text("MRFLLR 1\n2 2\n\n1.5\n  \n-1.5\n\t\n0.0\n2.5\n\n")
    assert read_mrfllr(path)[2].tolist() == [1.5, -1.5, 0.0, 2.5]
    path.write_text("MRFLLR 1\n2 2\n\n1.5\n  \nbogus\n0.0\n2.5\n")
    with pytest.raises(FileFormatError, match=f"^{path}:6: "):
        read_mrfllr(path)
    path = tmp_path / "labels.mrfl"
    path.write_text("MRFL 1\n0 0 3\n\n2 1\n \n0 0\n\n1 1\n\n")
    assert read_mrfl(path)[2].tolist() == [0, 1, 1]
    path.write_text("MRFL 1\n0 0 3\n\n2 1\n \n0 0\n\n2 1\n")
    with pytest.raises(FileFormatError, match=f"^{path}:8: site 2 listed twice$"):
        read_mrfl(path)


NAN, INF = float("nan"), float("inf")

REFUSED_WRITES = {
    "llr-nan": lambda p: write_mrfllr(p, 2, 2, [NAN] * 4),
    "llr-inf": lambda p: write_mrfllr(p, 2, 2, [0.0, -INF, 0.0, 0.0]),
    "llr-float-width": lambda p: write_mrfllr(p, 2.0, 2, [0.0] * 4),
    "labels-float": lambda p: write_mrfl(p, [0.5, 1.0]),
    "labels-whole-floats": lambda p: write_mrfl(p, np.array([1.0, 0.0])),
    "labels-bool": lambda p: write_mrfl(p, [True, False]),
    "labels-one-bool": lambda p: write_mrfl(p, [0, True, 1]),
    "sites-not-the-lattice's": lambda p: write_mrfl(p, [0, 1, 0], 3, 3),
    "one-dimension-zero": lambda p: write_mrfl(p, [0] * 4, 0, 2),
    "narrower-than-2": lambda p: write_mrfl(p, [0] * 4, 1, 5),
    "float-height": lambda p: write_mrfl(p, [0] * 4, 2, 2.0),
    "bool-width": lambda p: write_mrfl(p, [0] * 4, True, 2),
}


@pytest.mark.parametrize("name", list(REFUSED_WRITES))
def test_writers_refuse_what_their_readers_refuse_before_opening_the_file(tmp_path, name):
    path = tmp_path / "out"
    with pytest.raises(ValueError):
        REFUSED_WRITES[name](path)
    assert not path.exists()


@pytest.mark.parametrize("labels, width, height", [
    ([0, 1, 0, 2], 2, 2),
    (np.array([3, 0, 1], dtype=np.uint8), 0, 0),
    ([1] * 12, np.int32(3), np.int64(3)),
])
def test_every_accepted_mrfl_write_round_trips(tmp_path, labels, width, height):
    path = tmp_path / "labels.mrfl"
    write_mrfl(path, labels, width, height)
    assert read_mrfl(path)[:2] == (width, height)
    assert read_mrfl(path)[2].tolist() == np.asarray(labels).tolist()


def test_extreme_finite_llrs_round_trip(tmp_path):
    path = tmp_path / "values.mrfllr"
    llr = np.array([1.7976931348623157e308, -0.0, 5e-324, -1e-300])
    write_mrfllr(path, np.int64(2), 2, llr)
    width, height, back = read_mrfllr(path)
    assert (width, height) == (2, 2)
    assert back.tobytes() == llr.tobytes()


def test_trace_csv_format(tmp_path):
    rows = (TraceRow(0, 0.0, 0, 0), TraceRow(1, -5.499999999999999, 3, 3))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert lines[1] == "0,0.0,0,0"
    assert lines[2] == "1,-5.499999999999999,3,3"
    assert float(lines[2].split(",")[1]) == -5.499999999999999


def test_compare_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    write_compare_csv(path, [("tlr", -1.25, -1.25, 1, 1.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == COMPARE_HEADER
    assert lines[1] == "tlr,-1.25,-1.25,1,1.0"


def test_parse_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# full line comment\nestimator = hcf\n\nsweeps = 12 # inline\n")
    schema = {"estimator": str, "sweeps": int}
    assert parse_config(path, schema) == {"estimator": "hcf", "sweeps": 12}
    path.write_text("estimator = hcf\nbogus = 1\n")
    with pytest.raises(FileFormatError, match=":2:"):
        parse_config(path, schema)
    path.write_text("sweeps = 1\nsweeps = 2\n")
    with pytest.raises(FileFormatError, match="duplicate"):
        parse_config(path, schema)
    path.write_text("sweeps = banana\n")
    with pytest.raises(FileFormatError, match=":1:"):
        parse_config(path, schema)
    path.write_text("sweeps\n")
    with pytest.raises(FileFormatError, match="key = value"):
        parse_config(path, schema)


def test_text_files_use_plain_newlines(tmp_path):
    path = tmp_path / "t.csv"
    write_trace_csv(path, (TraceRow(0, 0.0, 0, 0),))
    assert b"\r" not in path.read_bytes()
