"""Fuzz the six stage-file readers and the config reader: whatever bytes a
file holds, a reader either returns or raises ConfigError (CLI exit 1),
never another exception, and it raises ConfigError on text that is not
UTF-8."""

import csv
import json
import os
import tempfile
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce.community import import_partition
from fcmreduce.errors import ConfigError
from fcmreduce.harness import import_distribution
from fcmreduce.pipeline import PipelineConfig, load_config, run_pipeline
from fcmreduce.population import import_population, import_topology
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
