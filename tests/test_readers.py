"""Fuzz the six stage-file readers: whatever a file holds, a reader either
returns or raises ConfigError (CLI exit 1), never another exception."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce.community import import_partition
from fcmreduce.errors import ConfigError
from fcmreduce.harness import import_distribution
from fcmreduce.pipeline import PipelineConfig, run_pipeline
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
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def stage_files(tmp_path_factory):
    """Valid text of every stage file, from one small pipeline run."""
    out = tmp_path_factory.mktemp("stages")
    cfg = PipelineConfig(source="obesity-variants", count=COUNT, k=2, rounds=1, repeats=2)
    run_pipeline(cfg, out_dir=out)
    return {name: (out / name).read_text(encoding="utf-8") for name in READERS}


@st.composite
def mutated(draw, valid: str):
    """Random text, a truncated valid file, a valid file with one span
    replaced by random text or, for JSON files, with one value replaced by
    a random JSON value."""
    kind = draw(st.sampled_from(["text", "truncate", "splice", "json"]))
    if kind == "text":
        return draw(st.text())
    start = draw(st.integers(0, len(valid)))
    if kind == "truncate":
        return valid[:start]
    if kind == "splice" or not valid.lstrip().startswith(("[", "{")):
        end = draw(st.integers(start, min(len(valid), start + 12)))
        return valid[:start] + draw(st.text(max_size=12)) + valid[end:]
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
    return json.dumps(doc)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_returns_or_raises_config_error(stage_files, name, data):
    text = data.draw(mutated(stage_files[name]), label="file text")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            READERS[name](path)
        except ConfigError:
            pass

