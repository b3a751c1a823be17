"""The benchmark recorder, `scripts/bench_record.py`, on one tiny workload."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_and_compare():
    bench_record = _load()
    record = bench_record.record("tiny", ["check-abstract-pairs"], 0.05, "tiny")
    assert set(record) == {"label", "revision", "python", "cpus", "seed", "seconds", "size", "runs", "kernel_s", "workloads"}
    assert (record["label"], record["runs"], record["seconds"], record["size"]) == ("tiny", 3, 0.05, "tiny")
    assert len(record["kernel_s"]) == 2 and all(t > 0 for t in record["kernel_s"])
    workload = record["workloads"]["check-abstract-pairs"]
    assert workload["correct"] is True and workload["failed"] == 0
    assert set(workload["metrics"]) == {"call_s", "units_per_s", "peak_rss_mb", "setup_s"}
    for metric in workload["metrics"].values():
        assert len(metric["values"]) == 3
        assert metric["q1"] <= metric["median"] <= metric["q3"]
        assert metric["iqr"] == metric["q3"] - metric["q1"]

    lines = bench_record.compare(record, record, bench_record._benchmark()["end_to_end"])
    assert len(lines) == 5  # a heading, then one line per end-to-end metric
    assert lines[0].endswith("kernel ratio 1.000")
    assert all("check-abstract-pairs" in line and "ratio 1.000" in line and "within bound" in line for line in lines[1:])
