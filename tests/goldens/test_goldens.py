"""Replay every golden config and compare with ``engine_goldens.npz``.

Integer fingerprints (CE series, live masks, cached ids) must match
exactly; float ones (losses, parameters, co-stored scores) to
``rtol=1e-9``, which absorbs last-bit differences between numpy builds.
A few configs are replayed again with every instrumentation option on
(profile, run log, trace file): observing a run must not change it.
A trajectory change that is intended is made by regenerating the
goldens (see ``generate_goldens.py`` and CONTRIBUTING.md).
"""

import numpy as np
import pytest

from generate_goldens import CONFIGS, GOLDEN_PATH, run_config, tiny_kg

GOLDENS = np.load(GOLDEN_PATH)


@pytest.fixture(scope="module")
def dataset():
    return tiny_kg()


def test_generator_graph_is_the_tiny_kg_fixture(dataset, tiny_kg):
    for split in ("train", "valid", "test"):
        np.testing.assert_array_equal(getattr(dataset, split), getattr(tiny_kg, split))


def test_goldens_cover_every_config():
    names = {key.split("/")[0] for key in GOLDENS.files}
    assert names == {config["name"] for config in CONFIGS} | {"stable_key_hash"}


#: Sequential, pooled and overlapped refreshes, replayed instrumented.
INSTRUMENTED = ("array-TransD", "pooled2-TransE", "overlap2-TransE")


def _assert_matches_golden(config, record):
    prefix = f"{config['name']}/"
    expected_keys = {key[len(prefix):] for key in GOLDENS.files if key.startswith(prefix)}
    assert set(record) == expected_keys
    for key, got in record.items():
        expected = GOLDENS[prefix + key]
        assert got.shape == expected.shape, key
        if np.issubdtype(expected.dtype, np.floating):
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0, err_msg=key)
        else:
            np.testing.assert_array_equal(got, expected, err_msg=key)


@pytest.mark.parametrize("config", CONFIGS, ids=[c["name"] for c in CONFIGS])
def test_trajectory_matches_golden(config, dataset):
    _assert_matches_golden(config, run_config(config, dataset))


@pytest.mark.parametrize("name", INSTRUMENTED)
def test_instrumented_trajectory_matches_golden(name, dataset, tmp_path):
    (config,) = [c for c in CONFIGS if c["name"] == name]
    record = run_config(
        config,
        dataset,
        trainer_kwargs={
            "profile": True,
            "metrics_out": str(tmp_path / "run.jsonl"),
            "trace_out": str(tmp_path / "trace.jsonl"),
        },
    )
    _assert_matches_golden(config, record)
    assert (tmp_path / "run.jsonl").stat().st_size > 0
    assert (tmp_path / "trace.jsonl").stat().st_size > 0
