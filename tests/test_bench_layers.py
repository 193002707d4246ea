"""Smoke test of tools/bench_layers.py: one fresh-process run at q = 7."""

import json
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
STAGES = ["axioms", "parallel_classes", "infinity_data", "t_infinity", "assemble_spread",
          "regulus_closure", "klein_regularity", "rebuild_arc", "uniqueness"]


def test_bench_layers_writes_the_declared_keys(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(TOOL), "--q", "7", "--runs", "1", "--out", str(out)],
                   check=True, capture_output=True, timeout=300)
    report = json.loads(out.read_text())
    assert set(report) == {"commit", "dirty", "machine", "results"}
    assert set(report["machine"]) == {"platform", "cpus", "python", "numpy"}
    assert list(report["results"]) == ["7"]
    result = report["results"]["7"]
    assert set(result) == {"runs", "passed", "fields_ms", "frame_ms", "frame_rss_mb",
                           "forward_ms", "pipeline_ms", "peak_rss_mb", "stages_ms"}
    assert result["runs"] == 1 and result["passed"] is True
    assert list(result["stages_ms"]) == STAGES
    assert all(v > 0 for v in [result[k] for k in ("fields_ms", "frame_ms", "frame_rss_mb",
                                                   "forward_ms", "pipeline_ms", "peak_rss_mb")]
               + list(result["stages_ms"].values()))
    # ru_maxrss only grows, and make_frame runs before the round trip
    assert result["frame_rss_mb"] <= result["peak_rss_mb"]
