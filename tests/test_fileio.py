"""Deterministic CSV/JSON/SVG emission and round trips."""

import numpy as np
import pytest

from kposim import fileio as io
from kposim import qpt
from kposim import tomography as tg
from kposim import fockspace as fs
from kposim.errors import UsageError


def test_csv_round_trip_is_exact(tmp_path):
    cols = {
        "t": np.array([0.0, np.pi, 1.0 / 3.0, 1e-17, -2.5000000000000004]),
        "v": np.array([0.1 + 0.2, -1e300, 5e-324, 0.0, 123456789.123456789]),
    }
    p = tmp_path / "table.csv"
    io.write_csv(p, cols)
    back = io.read_csv(p)
    assert list(back) == ["t", "v"]
    for k in cols:
        # 17 significant digits round-trip IEEE doubles bit for bit
        assert np.array_equal(back[k], cols[k])


def test_csv_rerun_is_byte_identical(tmp_path):
    cols = {"x": np.linspace(0.0, 1.0, 7), "y": np.sin(np.linspace(0, 1, 7))}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_csv(p1, cols)
    io.write_csv(p2, cols)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_validation(tmp_path):
    with pytest.raises(UsageError):
        io.write_csv(tmp_path / "bad.csv", {})
    with pytest.raises(UsageError):
        io.write_csv(tmp_path / "bad.csv",
                     {"a": np.zeros(3), "b": np.zeros(4)})
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(UsageError):
        io.read_csv(empty)


def test_json_numpy_scalars(tmp_path):
    p = tmp_path / "out.json"
    io.write_json(p, {
        "flag": np.bool_(True),
        "count": np.int64(7),
        "value": np.float64(0.1),
        "z": 1.5 - 0.25j,
        "arr": np.arange(3.0),
        "nested": {"ok": False},
    })
    back = io.read_json(p)
    # numpy bools must serialize as JSON booleans, not integers
    assert back["flag"] is True
    assert back["nested"]["ok"] is False
    assert back["count"] == 7
    assert back["value"] == 0.1
    assert back["z"] == {"re": 1.5, "im": -0.25}
    assert back["arr"] == [0.0, 1.0, 2.0]
    assert '"flag": true' in p.read_text()


def test_json_rerun_is_byte_identical(tmp_path):
    obj = {"b": [1.0, 2.0], "a": {"y": 0.1, "x": np.pi}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    io.write_json(p1, obj)
    io.write_json(p2, obj)
    assert p1.read_bytes() == p2.read_bytes()


def test_record_jsonl_round_trip(tmp_path):
    grid = np.linspace(-1.0, 1.0, 5)
    rec = tg.ideal_record(fs.cat_state(0.9, "even", 15),
                          tg.grid_points(grid, grid))
    p = tmp_path / "record.jsonl"
    io.write_record_jsonl(p, rec)
    alphas, parities = io.read_record_jsonl(p)
    assert np.array_equal(alphas, rec.alphas)
    assert np.array_equal(parities, rec.parities)


def test_chi_exports(tmp_path):
    pm = qpt.ideal_chi((np.eye(2) - 1j * np.array([[0, 1], [1, 0]]))
                       / np.sqrt(2.0))
    pj = tmp_path / "chi.json"
    io.write_chi_json(pj, pm)
    back = io.read_json(pj)
    assert back["labels"] == ["I", "X", "-iY", "Z"]
    chi_back = np.array(back["real"]) + 1j * np.array(back["imag"])
    assert np.max(np.abs(chi_back - pm.chi)) < 1e-16
    pc = tmp_path / "chi.csv"
    io.write_chi_csv(pc, pm)
    table = io.read_csv(pc)
    assert len(table["row"]) == 16
    rebuilt = np.zeros((4, 4), dtype=complex)
    for r, c, re, im in zip(table["row"], table["col"],
                            table["real"], table["imag"]):
        rebuilt[int(r), int(c)] = re + 1j * im
    assert np.max(np.abs(rebuilt - pm.chi)) < 1e-16


def test_svg_outputs_are_deterministic(tmp_path):
    x = np.linspace(-2.0, 2.0, 9)
    y = np.linspace(-1.0, 1.0, 7)
    v = np.outer(np.cos(y), np.sin(x))
    h1, h2 = tmp_path / "h1.svg", tmp_path / "h2.svg"
    io.svg_heatmap(h1, x, y, v, title="map", xlabel="re", ylabel="im")
    io.svg_heatmap(h2, x, y, v, title="map", xlabel="re", ylabel="im")
    assert h1.read_bytes() == h2.read_bytes()
    l1, l2 = tmp_path / "l1.svg", tmp_path / "l2.svg"
    series = {"a": np.sin(x), "b": np.cos(x)}
    io.svg_lines(l1, x, series, title="traces")
    io.svg_lines(l2, x, series, title="traces")
    assert l1.read_bytes() == l2.read_bytes()
    pm = qpt.ideal_chi(np.eye(2))
    b1, b2 = tmp_path / "b1.svg", tmp_path / "b2.svg"
    io.svg_chi_bars(b1, pm)
    io.svg_chi_bars(b2, pm)
    assert b1.read_bytes() == b2.read_bytes()


def test_svg_heatmap_validates_shape(tmp_path):
    with pytest.raises(UsageError):
        io.svg_heatmap(tmp_path / "x.svg", np.arange(3.0), np.arange(4.0),
                       np.zeros((3, 3)))


def test_svg_files_are_wellformed(tmp_path):
    import xml.etree.ElementTree as ET
    x = np.linspace(0.0, 1.0, 5)
    p = tmp_path / "w.svg"
    io.svg_lines(p, x, {"y": x ** 2})
    root = ET.parse(p).getroot()
    assert root.tag.endswith("svg")


def test_writers_create_their_parent_directory(tmp_path):
    pm = qpt.ideal_chi(np.eye(2))
    rec = tg.ideal_record(fs.fock_state(0, 4), np.array([0.0j]))
    writers = {
        "table.csv": lambda p: io.write_csv(p, {"x": np.arange(2.0)}),
        "summary.json": lambda p: io.write_json(p, {"a": 1}),
        "record.jsonl": lambda p: io.write_record_jsonl(p, rec),
        "lines.svg": lambda p: io.svg_lines(p, np.arange(2.0),
                                            {"y": np.arange(2.0)}),
        "bars.svg": lambda p: io.svg_chi_bars(p, pm),
    }
    for name, write in writers.items():
        target = tmp_path / name / "deep" / name
        write(target)
        assert target.is_file()
