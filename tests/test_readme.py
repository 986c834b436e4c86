"""The README's code and config examples run as written."""

import re
from pathlib import Path

import pytest

from phaselab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_library_sketch_matches_a_leaf(capsys):
    (sketch,) = _blocks("python")
    exec(compile(sketch, "README.md", "exec"), {})
    status, b0, sup_error = capsys.readouterr().out.split()
    assert status == "matched"
    assert abs(float(b0) - 0.3) < 0.05 and float(sup_error) < 1e-3


@pytest.mark.parametrize("index", range(len(_blocks("ini"))))
def test_config_blocks_load(tmp_path, index):
    text = _blocks("ini")[index]
    path = tmp_path / "readme.ini"
    path.write_text(text)
    cfg = cli._read_config(path)
    axes = cli._build_axes(cfg)
    assert len(axes) == cli._value(cfg, "grid", "n")
    if cfg.has_section("foliate"):
        fam = cli._family_from_config(cfg, axes)
        assert len(fam.members) == cli._value(cfg, "foliate", "count")


def test_config_table_lists_every_key():
    rows = re.findall(r"^\| `(\w+)` \| (`[^|]*`) \|", README, flags=re.M)
    listed = {(section, key) for section, keys in rows for key in re.findall(r"`(\w+)`", keys)}
    assert listed == set(cli.KEYS)
