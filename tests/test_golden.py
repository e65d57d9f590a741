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

The trap5_10 files freeze the per-sample engines on trap_5_10 with
K=1234, which no block size of draws divides: the `sweep-alpha` CSV of
each online variant (three alphas, 12 replicates), and the memoryless
`run` JSON of a config with eps_conv set, whose replicates stop at
different steps. They were written the same way (`sweep-alpha` and
`run --format json` on `trap5_10_<variant>.json`).
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


@pytest.mark.parametrize(
    "argv, config, frozen",
    [
        (["sweep-alpha"], "trap5_10_window.json", "trap5_10_window_sweep.csv"),
        (["sweep-alpha"], "trap5_10_memoryless.json", "trap5_10_memoryless_sweep.csv"),
        (["run", "--format", "json"], "trap5_10_memoryless.json", "trap5_10_memoryless_run.json"),
    ],
)
def test_online_trap_output_matches_frozen_bytes(capsys, argv, config, frozen):
    code = cli.main([argv[0], "--config", str(GOLDEN / config), *argv[1:]])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert out.out.encode("utf-8") == (GOLDEN / frozen).read_bytes()
