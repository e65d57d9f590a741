"""Frozen CLI outputs at snapshot_stride=1.

`golden/` holds a small maxcut_10 config (window variant, K=600, 5
replicates, one snapshot per evaluation) and two outputs written from
it: the `compare` CSV and the window `run` results JSON. Their
converged_step, mean_converged_step and envelope_violations columns
come from `analyze` over every snapshot, so any change in how traces
are stored or analyzed that moves an output byte fails here.

Regenerate only for an intended output change, with
`python -m cemkit compare --config tests/golden/maxcut10_window.json`
and `python -m cemkit run --config tests/golden/maxcut10_window.json
--format json`, each redirected to its file.
"""

from pathlib import Path

import pytest

from cemkit import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = GOLDEN / "maxcut10_window.json"


@pytest.mark.parametrize(
    "argv, frozen",
    [
        (["compare"], "maxcut10_compare.csv"),
        (["run", "--format", "json"], "maxcut10_window_run.json"),
    ],
)
def test_output_matches_frozen_bytes(capsys, argv, frozen):
    code = cli.main([argv[0], "--config", str(CONFIG), *argv[1:]])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out.encode("utf-8") == (GOLDEN / frozen).read_bytes()
