"""Parser robustness: whatever the bytes, every reader either succeeds or
raises an EnecgError subclass, and a one-line edit of a valid checkpoint
either loads or is a ParseError."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from enecg.adapters import read_tensors
from enecg.config import load_config
from enecg.errors import ConfigError, EnecgError, ParseError
from enecg.pipeline import load_task_model, save_task_model
from enecg.saliency import load_saliency_csv
from enecg.signal import load_records
from test_adapters import trained_like_task_model

READERS = {
    "load_config": lambda path: load_config(path, seed_override=1),
    "read_tensors": read_tensors,
    "load_task_model": load_task_model,
    "load_records": load_records,
    "load_saliency_csv": load_saliency_csv,
}

# valid-looking openings reach past each reader's header check
PREFIXES = [b"", b"ENECGCKPT1 3\n", b"ENECGCKPT1 2\nscalar task_id 0.0\ntensor gate.leads 1\n",
            b"ENECG1 rec0 2 3 100.0\n", b"lead,sample_index,attribution\n",
            b"[experiment]\nseed = 1\n", b"[gating]\nleads = "]
FIELD_TEXT = st.text(alphabet="0123456789.,-+xeE naintfscalrhgdo_[]=\n", max_size=80)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers")


@pytest.mark.parametrize("reader", sorted(READERS))
def test_non_utf8_input_is_a_parse_or_config_error(tmp_path, reader):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    expected = ConfigError if reader == "load_config" else ParseError
    with pytest.raises(expected, match="(?i)utf-8"):
        READERS[reader](path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prefix=st.sampled_from(PREFIXES),
       body=st.one_of(st.binary(max_size=200), FIELD_TEXT.map(str.encode)),
       reader=st.sampled_from(sorted(READERS)))
def test_any_bytes_load_or_raise_an_enecg_error(scratch, prefix, body, reader):
    path = scratch / "fuzz.bin"
    path.write_bytes(prefix + body)
    try:
        READERS[reader](path)
    except EnecgError:
        pass


@pytest.fixture(scope="module")
def checkpoint_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_task_model(trained_like_task_model(), path)
    return path.read_text().splitlines()


def _edits():
    """(operation, line position in [0, 1), replacement text) of one line."""
    replacement = st.one_of(FIELD_TEXT.map(lambda t: t.replace("\n", " ")),
                            st.sampled_from(["nan", "inf", "-1.0", "1e400", "0", "1.5", "",
                                             "scalar n 1", "tensor x 0", "tensor gate.leads 2"]))
    return st.tuples(st.sampled_from(["replace", "field", "delete", "duplicate", "append",
                                      "truncate"]),
                     st.floats(0.0, 1.0, exclude_max=True), replacement)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edit=_edits())
def test_one_line_edit_of_a_checkpoint_loads_or_is_a_parse_error(scratch, checkpoint_lines, edit):
    op, where, text = edit
    lines = list(checkpoint_lines)
    i = int(where * len(lines))
    if op == "replace":
        lines[i] = text
    elif op == "field":  # one comma-separated value, or the last word of an entry line
        sep = "," if "," in lines[i] or not lines[i].startswith(("scalar", "tensor")) else " "
        fields = lines[i].split(sep)
        fields[int(where * 7919) % len(fields) if sep == "," else -1] = text
        lines[i] = sep.join(fields)
    elif op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "append":
        lines[i] += text
    else:
        lines[i] = lines[i][:int(where * len(lines[i]))]
    path = scratch / "edited.ckpt"
    path.write_text("\n".join(lines) + "\n")
    try:
        model = load_task_model(path)
    except ParseError:
        return
    assert all(np.isfinite(t.data).all() for h in model.named_heads().values()
               for layer in h.layers for t in layer.tensors().values())
