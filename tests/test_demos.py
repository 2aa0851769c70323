"""Every script in demos/ runs to completion in-process."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where train_toy_model saves its checkpoint
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_every_demo_is_found():
    assert len(DEMOS) == 4
