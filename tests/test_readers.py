"""Fuzz the six stage-file readers and the config reader: whatever bytes a
file holds, a reader either returns or raises ConfigError (CLI exit 1),
never another exception, and it raises ConfigError on text that is not
UTF-8."""

import csv
import json
import os
import tempfile
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce.community import import_partition
from fcmreduce.errors import ConfigError
from fcmreduce.fcm import fcm_from_dict
from fcmreduce.harness import import_distribution
from fcmreduce.pipeline import PipelineConfig, load_config, run_pipeline
from fcmreduce.population import export_population, generate_cmaes_style, import_population, import_topology
from fcmreduce.reduction import import_provenance
from fcmreduce.similarity import import_tie_weights

COUNT = 8

READERS = {
    "population.json": import_population,
    "topology.csv": lambda path: import_topology(path, range(COUNT)),
    "ties.csv": import_tie_weights,
    "partition.csv": import_partition,
    "provenance.json": import_provenance,
    "distribution_original.csv": import_distribution,
    "config.json": load_config,
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory):
    """Valid text of every stage file, from one small pipeline run, and of
    the config that made them."""
    out = tmp_path_factory.mktemp("stages")
    cfg = PipelineConfig(source="obesity-variants", count=COUNT, k=2, rounds=1, repeats=2)
    run_pipeline(cfg, out_dir=out)
    (out / "config.json").write_text(json.dumps(asdict(cfg)), encoding="utf-8")
    return {name: (out / name).read_text(encoding="utf-8") for name in READERS}


@st.composite
def mutated(draw, valid: str) -> bytes:
    """Random bytes or text, a truncated valid file, a valid file with one
    non-UTF-8 byte spliced in, with one span replaced by random text or,
    for JSON files, with one value replaced by a random JSON value."""
    kind = draw(st.sampled_from(["bytes", "byte", "text", "truncate", "splice", "json"]))
    if kind == "bytes":
        return draw(st.binary())
    if kind == "byte":
        raw = valid.encode("utf-8")
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + raw[at:]
    if kind == "text":
        return draw(st.text()).encode("utf-8")
    start = draw(st.integers(0, len(valid)))
    if kind == "truncate":
        return valid[:start].encode("utf-8")
    if kind == "splice" or not valid.lstrip().startswith(("[", "{")):
        end = draw(st.integers(start, min(len(valid), start + 12)))
        return (valid[:start] + draw(st.text(max_size=12)) + valid[end:]).encode("utf-8")
    doc = json.loads(valid)
    slots = []  # (container, key) of every value below the root

    def collect(node):
        if isinstance(node, (list, dict)):
            for key in range(len(node)) if isinstance(node, list) else list(node):
                slots.append((node, key))
                collect(node[key])

    collect(doc)
    container, key = draw(st.sampled_from(slots))
    container[key] = draw(JSON_VALUES)
    return json.dumps(doc).encode("utf-8")


def is_utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_returns_or_raises_config_error(stage_files, name, data):
    raw = data.draw(mutated(stage_files[name]), label="file bytes")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(raw)
        if not is_utf8(raw):
            with pytest.raises(ConfigError, match="UTF-8"):
                READERS[name](path)
            return
        try:
            READERS[name](path)
        except ConfigError:
            pass


@pytest.mark.parametrize("name", sorted(READERS))
def test_input_beyond_parser_limits_is_config_error(stage_files, name, tmp_path):
    """json raises RecursionError on deep nesting and csv raises csv.Error on
    an oversized field; both are malformed files."""
    if name.endswith(".json"):
        text = "[" * 100_000
    else:
        header = stage_files[name].splitlines()[0]
        text = f"{header}\n{'x' * (csv.field_size_limit() + 1)}\n"
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError):
        READERS[name](str(path))


@pytest.mark.parametrize("name", sorted(READERS))
def test_bad_byte_after_a_blank_first_line_is_reported_as_not_utf8(name, tmp_path):
    """The file ends inside a multi-byte sequence, so the decoder fails only
    at the end, after a blank first line that is itself a bad header; the
    reader still names the encoding as the fault."""
    path = tmp_path / name
    path.write_bytes(b"\n\xc2")
    with pytest.raises(ConfigError, match="UTF-8"):
        READERS[name](str(path))


def whole_file_population(path):
    """Test oracle: the maps of a population file decoded as one JSON tree
    (json.load, then fcm_from_dict on each record) or, where a reader must
    raise ConfigError, the part of its message that names the fault."""
    try:
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    except UnicodeDecodeError:
        return "UTF-8"
    except (json.JSONDecodeError, RecursionError):
        return "not valid JSON"
    if not isinstance(records, list) or not records:
        return "must hold a non-empty JSON array"
    try:
        return [fcm_from_dict(record) for record in records]
    except ConfigError:
        return "population record"


def check_against_whole_file(path, same_fault: bool):
    """import_population raises ConfigError where the oracle finds a fault,
    naming the same fault when same_fault (a file with a bad record before a
    syntax error names the record, since records are converted as they are
    decoded), and otherwise returns the oracle's maps."""
    expected = whole_file_population(path)
    if isinstance(expected, str):
        with pytest.raises(ConfigError, match=expected if same_fault else None):
            import_population(path)
        return
    got = import_population(path)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.concepts == b.concepts
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.activation, b.activation)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_population_reader_matches_whole_file_decode(stage_files, data):
    raw = data.draw(mutated(stage_files["population.json"]), label="file bytes")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "population.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        check_against_whole_file(path, same_fault=False)


def framings(valid: str) -> dict:
    """The valid population text reframed: whitespace, layout, an empty
    array, and breaks of the array's own syntax. Every record before a
    break is valid, so the whole-file decode and the reader name one fault."""
    records = json.loads(valid)
    body = valid.rstrip()[:-1].rstrip()  # without the closing ]
    return {
        "as written": valid,
        "indented": json.dumps(records, indent=2),
        "tab-indented": json.dumps(records, indent="\t"),
        "compact": json.dumps(records, separators=(",", ":")),
        "leading whitespace": " \r\n\t" + valid,
        "trailing whitespace": valid + "\n \r\n",
        "CRLF lines": valid.replace("\n", "\r\n"),
        "BOM": "\ufeff" + valid,
        "trailing comma": body + ",\n]",
        "empty": "[]",
        "empty with blank": "[ ]",
        "empty with newline": "[\n]\n",
        "trailing data": valid + "x",
        "trailing array": valid + "[]",
        "second bracket": valid.rstrip() + "]",
        "missing comma": valid.replace("},\n{", "}\n{", 1),
        "colon for comma": valid.replace("},\n{", "}:\n{", 1),
        "double comma": valid.replace("},\n{", "},,{", 1),
        "unclosed": body,
        "unclosed after comma": body + ",",
        "open bracket only": "[",
        "nothing": "",
        "blank": " \n",
        "object": "{}",
        "number": "5",
        "number record": "[5]",
        "record then number": body + ", 5]",
        "nested array": f"[{valid}]",
    }


@pytest.mark.parametrize("case", sorted(framings("[]")))
def test_population_framing_matches_whole_file_decode(stage_files, case, tmp_path):
    path = tmp_path / "population.json"
    path.write_bytes(framings(stage_files["population.json"])[case].encode("utf-8"))
    check_against_whole_file(str(path), same_fault=True)


def test_population_reader_peak_memory_stays_near_file_size(tmp_path):
    """Records are decoded one at a time, so the reader's peak is the file's
    bytes and text and the maps it builds, about 2x the file's size; a
    whole-file decode of the same file peaks at about 4.3x."""
    path = tmp_path / "population.json"
    export_population(generate_cmaes_style(200, seed=5), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fcms = import_population(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fcms) == 200
    assert peak <= 2.5 * size, f"peak {peak} bytes for a {size}-byte file"
