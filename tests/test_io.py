import dataclasses
import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqla import io as gqck
from gqla import model as M
from gqla.cli import main
from gqla.convert_gqa import init_random_gqa
from gqla.errors import CheckpointFormatError


def read_blob(path):
    with open(path, "rb") as fh:
        return fh.read()


def rewrite_manifest(path, edit):
    """Replace a checkpoint's manifest by edit(manifest), re-encoded as JSON
    unless edit returns bytes; the payload stays as it is."""
    blob = read_blob(path)
    version, header_len = struct.unpack("<IQ", blob[4:16])
    header = edit(json.loads(blob[16:16 + header_len]))
    if not isinstance(header, bytes):
        header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:4] + struct.pack("<IQ", version, len(header)) + header +
                     blob[16 + header_len:])


class TestCheckpointRoundTrip:
    def test_gqla_bitwise(self, tmp_path, desk_config, desk_weights):
        path = tmp_path / "model.gqck"
        gqck.write_checkpoint(path, "gqla", desk_config, desk_weights)
        kind, config, weights = gqck.read_checkpoint(path)
        assert kind == "GQLA" and config == desk_config
        for name in gqck._GQLA_FIELDS:
            assert np.array_equal(getattr(weights, name), getattr(desk_weights, name))

    def test_mla_kind(self, tmp_path, mla_config, mla_weights):
        path = tmp_path / "mla.gqck"
        gqck.write_checkpoint(path, "mla", mla_config, mla_weights)
        kind, config, weights = gqck.read_checkpoint(path)
        assert kind == "MLA" and config == mla_config
        assert np.array_equal(weights.k_up, mla_weights.k_up)

    def test_gqa_kind(self, tmp_path, desk_gqa):
        path = tmp_path / "src.gqck"
        gqck.write_checkpoint(path, "gqa", None, desk_gqa)
        kind, config, weights = gqck.read_checkpoint(path)
        assert kind == "GQA"
        assert config["num_heads"] == 8 and config["head_dim"] == 16
        for name in gqck._GQA_FIELDS:
            assert np.array_equal(getattr(weights, name), getattr(desk_gqa, name))

    def test_writes_are_deterministic(self, tmp_path, desk_config, desk_weights):
        a, b = tmp_path / "a.gqck", tmp_path / "b.gqck"
        gqck.write_checkpoint(a, "gqla", desk_config, desk_weights)
        gqck.write_checkpoint(b, "gqla", desk_config, desk_weights)
        assert read_blob(a) == read_blob(b)

    def test_provenance_does_not_affect_values(self, tmp_path, desk_config, desk_weights):
        a, b = tmp_path / "a.gqck", tmp_path / "b.gqck"
        gqck.write_checkpoint(a, "gqla", desk_config, desk_weights)
        gqck.write_checkpoint(b, "gqla", desk_config, desk_weights, provenance="run 1")
        _, cfg_a, w_a = gqck.read_checkpoint(a)
        _, cfg_b, w_b = gqck.read_checkpoint(b)
        assert cfg_a == cfg_b
        assert np.array_equal(w_a.kv_down, w_b.kv_down)

    def test_read_peak_memory_is_the_file_and_one_copy_of_its_tensors(self, tmp_path):
        # about 10 MB of weights, each tensor read into its own array: no copy of the file
        config = M.GqlaConfig(model_dim=512, num_heads=8, num_groups=8, head_dim=64,
                              value_head_dim=64, rope_head_dim=32, kv_rank=256, q_rank=512)
        path = tmp_path / "model.gqck"
        gqck.write_checkpoint(path, "gqla", config, M.init_random(config, 4))
        tracemalloc.start()
        try:
            gqck.read_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak <= 1.1 * size, f"read peak {peak / size:.2f}x the file size"

    def test_write_peak_memory_is_a_small_share_of_the_file(self, tmp_path):
        # each tensor's own buffer is written: no bytes copy of the payload
        config = M.GqlaConfig(model_dim=512, num_heads=8, num_groups=8, head_dim=64,
                              value_head_dim=64, rope_head_dim=32, kv_rank=256, q_rank=512)
        weights = M.init_random(config, 4)
        path = tmp_path / "model.gqck"
        tracemalloc.start()
        try:
            gqck.write_checkpoint(path, "gqla", config, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak <= 0.1 * size, f"write peak {peak / size:.3f}x the file size"

    def test_written_bytes_are_pinned_through_a_round_trip(self, tmp_path, desk_config,
                                                           desk_weights):
        path, again = tmp_path / "model.gqck", tmp_path / "again.gqck"
        gqck.write_checkpoint(path, "gqla", desk_config, desk_weights)
        blob = read_blob(path)
        assert hashlib.sha256(blob).hexdigest() == (
            "0cd63b47d4990ad51a5d50ed19d49d91efd722d2da4e5b68618cd4d7c31c31e4")
        gqck.write_checkpoint(again, *gqck.read_checkpoint(path))
        assert read_blob(again) == blob


class TestCheckpointValidation:
    def test_truncated_payload_names_the_tensor(self, tmp_path, desk_config, desk_weights):
        path = tmp_path / "model.gqck"
        gqck.write_checkpoint(path, "gqla", desk_config, desk_weights)
        blob = read_blob(path)
        with open(path, "wb") as fh:
            fh.write(blob[:-64])
        with pytest.raises(CheckpointFormatError, match="out_proj"):
            gqck.read_checkpoint(path)

    def test_mla_with_group_indexed_tensors_rejected(self, tmp_path, desk_config, desk_weights):
        # desk_config has 2 groups for 8 heads: not a head-indexed layout
        with pytest.raises(CheckpointFormatError, match="head-indexed"):
            gqck.write_checkpoint(tmp_path / "bad.gqck", "mla", desk_config, desk_weights)

    def test_mla_mislabel_rejected_on_read(self, tmp_path, desk_config, desk_weights):
        # a group-indexed file whose manifest claims the head-indexed kind
        path = tmp_path / "model.gqck"
        gqck.write_checkpoint(path, "gqla", desk_config, desk_weights)
        rewrite_manifest(path, lambda h: {**h, "kind": "MLA"})
        with pytest.raises(CheckpointFormatError, match="head-indexed"):
            gqck.read_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.gqck"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(CheckpointFormatError, match="magic"):
            gqck.read_checkpoint(path)

    def test_unknown_version(self, tmp_path, desk_config, desk_weights):
        path = tmp_path / "model.gqck"
        gqck.write_checkpoint(path, "gqla", desk_config, desk_weights)
        blob = bytearray(read_blob(path))
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="version"):
            gqck.read_checkpoint(path)

    def test_missing_tensor_rejected(self, tmp_path, desk_config, desk_weights):
        path = tmp_path / "model.gqck"
        gqck.write_checkpoint(path, "gqla", desk_config, desk_weights)
        rewrite_manifest(path, lambda h: {**h, "tensors": h["tensors"][:-1]})
        with pytest.raises(CheckpointFormatError, match="missing"):
            gqck.read_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path, desk_config, desk_weights):
        bad = dataclasses.replace(desk_weights, k_up=desk_weights.k_up[:-1])
        with pytest.raises(Exception):
            gqck.write_checkpoint(tmp_path / "bad.gqck", "gqla", desk_config, bad)

    def test_unknown_kind(self, tmp_path, desk_config, desk_weights):
        with pytest.raises(CheckpointFormatError, match="kind"):
            gqck.write_checkpoint(tmp_path / "x.gqck", "mha", desk_config, desk_weights)


def _tensor_names(path):
    blob = read_blob(path)
    header_len = struct.unpack("<Q", blob[8:16])[0]
    return [t["name"] for t in json.loads(blob[16:16 + header_len])["tensors"]]


@pytest.fixture
def gqa_desk_convert(tmp_path, desk_gqa, capsys):
    """(path, target config) of the desk GQA source converted by the CLI at
    --rkv 14 --dhr 4, seed 0 and 2048 calibration tokens."""
    source, path = tmp_path / "src.gqck", tmp_path / "converted.gqck"
    gqck.write_checkpoint(source, "gqa", None, desk_gqa)
    assert main(["convert", "--from", "gqa", "--in", str(source), "--out", str(path),
                 "--rkv", "14", "--dhr", "4", "--calib-tokens", "2048", "--seed", "0"]) == 0
    capsys.readouterr()
    return path, gqck.read_checkpoint(path)[1]


class TestMissingQueryDownProjection:
    @pytest.mark.parametrize("kind", ["gqla", "mla"])
    def test_a_manifest_without_q_down_reads_at_q_rank_equal_model_dim(self, tmp_path, kind,
                                                                        desk_config, mla_config):
        config = dataclasses.replace(desk_config if kind == "gqla" else mla_config, q_rank=64)
        weights = dataclasses.replace(M.init_random(config, 7), q_down=None)
        path = tmp_path / "model.gqck"
        gqck.write_checkpoint(path, kind, config, weights)
        assert "q_down" not in _tensor_names(path) and len(_tensor_names(path)) == 7
        got_kind, got_config, got = gqck.read_checkpoint(path)
        assert (got_kind, got_config, got.q_down) == (kind.upper(), config, None)
        for field in dataclasses.fields(weights)[1:]:
            assert np.array_equal(getattr(got, field.name), getattr(weights, field.name))

    @pytest.mark.parametrize("kind", ["gqla", "mla"])
    def test_a_manifest_without_q_down_is_refused_otherwise(self, tmp_path, kind, desk_config,
                                                            desk_weights, mla_config,
                                                            mla_weights):
        path = tmp_path / "model.gqck"
        if kind == "gqla":
            gqck.write_checkpoint(path, kind, desk_config, desk_weights)
        else:
            gqck.write_checkpoint(path, kind, mla_config, mla_weights)
        rewrite_manifest(path, lambda h: {**h, "tensors": [
            t for t in h["tensors"] if t["name"] != "q_down"]})
        with pytest.raises(CheckpointFormatError, match="q_down"):
            gqck.read_checkpoint(path)

    def test_a_converted_gqa_checkpoint_lists_seven_tensors(self, tmp_path, gqa_desk_convert):
        path, _ = gqa_desk_convert
        assert _tensor_names(path) == ["q_up", "q_rope", "kv_down", "k_up", "v_up", "k_rope",
                                       "out_proj"]

    def test_a_file_with_an_identity_q_down_reads_verifies_and_rewrites(self, tmp_path,
                                                                        gqa_desk_convert,
                                                                        capsys):
        # the same conversion as written with a dense identity q_down: the
        # file that converter gave, byte for byte
        path, target = gqa_desk_convert
        weights = gqck.read_checkpoint(path)[2]
        old, again = tmp_path / "identity.gqck", tmp_path / "again.gqck"
        gqck.write_checkpoint(old, "gqla", target, dataclasses.replace(weights,
                                                                      q_down=np.eye(64)))
        assert hashlib.sha256(read_blob(old)).hexdigest() == (
            "bf3e033a353cca8e2d2818c153c993ad3101fb72882d1d19d67df0e0468718cd")
        kind, config, read = gqck.read_checkpoint(old)
        assert np.array_equal(read.q_down, np.eye(64))
        assert main(["verify", "--checkpoint", str(old), "--seq-len", "12", "--sq", "2"]) == 0
        assert capsys.readouterr().out.count("PASS") == 5
        gqck.write_checkpoint(again, kind, config, read)
        assert read_blob(again) == read_blob(old)


def _set(section, key, value, index=0):
    """Manifest edit: header[key] = value, or the same inside the config or
    the index-th tensor entry."""
    def edit(header):
        target = {"header": header, "config": header["config"],
                  "tensor": header["tensors"][index]}[section]
        target[key] = value
        return header
    return edit


# Manifests that are valid JSON but not a valid checkpoint, each with the
# checkpoint kind it edits. Tensor 0 is q_down (48 x 64) for the gqla kind;
# the fractional and bool values would truncate to the written ones.
MALFORMED_MANIFESTS = {
    "string shape": ("gqla", _set("tensor", "shape", "ab")),
    "string offset": ("gqla", _set("tensor", "offset", "x", index=1)),
    "numeric string offset": ("gqla", _set("tensor", "offset", "0")),
    "tensors not a list": ("gqla", _set("header", "tensors", 5)),
    "null tensor name": ("gqla", _set("tensor", "name", None)),
    "manifest not an object": ("gqla", lambda h: [h]),
    "tensor entry not an object": ("gqla", lambda h: {**h, "tensors": [1] + h["tensors"][1:]}),
    "fractional shape": ("gqla", _set("tensor", "shape", [48.5, 64])),
    "fractional num_heads": ("gqla", _set("config", "num_heads", 8.7)),
    "bool offset": ("gqla", _set("tensor", "offset", False)),
    "dtype not a string": ("gqla", _set("header", "dtype", [])),
    "dtype float32": ("gqla", _set("header", "dtype", "float32")),
    "config not an object": ("gqla", _set("header", "config", None)),
    "string rope_base": ("gqla", _set("config", "rope_base", "10000")),
    "huge rope_base": ("gqla", _set("config", "rope_base", 10 ** 400)),
    "empty dimension": ("gqla", _set("tensor", "shape", [0, 10 ** 30])),
    "nesting too deep": ("gqla", lambda h: b"[" * 100000),
    "zero groups": ("gqa", _set("config", "num_groups", 0)),
    "fractional head_dim": ("gqa", _set("config", "head_dim", 16.5)),
}


@pytest.fixture
def checkpoint_of_kind(tmp_path, desk_config, desk_weights, desk_gqa):
    def make(kind):
        path = tmp_path / f"{kind}.gqck"
        if kind == "gqa":
            gqck.write_checkpoint(path, kind, None, desk_gqa)
        else:
            gqck.write_checkpoint(path, kind, desk_config, desk_weights)
        return path
    return make


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_raises_format_error(case, checkpoint_of_kind):
    kind, edit = MALFORMED_MANIFESTS[case]
    path = checkpoint_of_kind(kind)
    rewrite_manifest(path, edit)
    with pytest.raises(CheckpointFormatError):
        gqck.read_checkpoint(path)


def test_verify_reports_malformed_manifest_as_usage_error(checkpoint_of_kind, capsys):
    path = checkpoint_of_kind("gqla")
    rewrite_manifest(path, MALFORMED_MANIFESTS["tensors not a list"][1])
    assert main(["verify", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    """Every key path into a JSON value, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _write_small(path, kind):
    if kind == "gqa":
        gqck.write_checkpoint(path, kind, None, init_random_gqa(4, 2, 4, 8, seed=0))
    else:
        config = M.GqlaConfig(model_dim=8, num_heads=2, num_groups=2, head_dim=4,
                              value_head_dim=4, rope_head_dim=2, kv_rank=4, q_rank=6)
        gqck.write_checkpoint(path, kind, config, M.init_random(config, 0))


def _read_or_format_error(path):
    try:
        gqck.read_checkpoint(path)
    except CheckpointFormatError:
        pass


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_any_manifest_value_gives_a_checkpoint_or_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "model.gqck"
    _write_small(path, data.draw(st.sampled_from(["gqla", "mla", "gqa"])))
    value = data.draw(JSON_VALUES)

    def edit(h):
        where = data.draw(st.sampled_from(list(_paths(h))))
        if not where:
            return value
        node = h
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        return h
    rewrite_manifest(path, edit)
    _read_or_format_error(path)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_any_byte_edit_gives_a_checkpoint_or_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "model.gqck"
    _write_small(path, data.draw(st.sampled_from(["gqla", "gqa"])))
    blob = bytearray(read_blob(path))
    manifest_end = 16 + struct.unpack("<Q", blob[8:16])[0]
    # most edits land in the container header and the manifest
    for at, byte in data.draw(st.lists(st.tuples(st.integers(0, manifest_end - 1),
                                                 st.integers(0, 255)), min_size=1, max_size=4)):
        blob[at] = byte
    path.write_bytes(bytes(blob[:data.draw(st.integers(0, len(blob)))]))
    _read_or_format_error(path)
