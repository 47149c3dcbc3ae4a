"""Median and quartiles of each metric over several benchmark reports.

    python3 bench/summarize.py bench/out/*-trace0.json

Reads the reports ``run.py`` writes under ``bench/out/`` and prints one JSON
object: the first report's environment and, per workload and metric, the
median, the quartiles, the quartile spread as a share of the median, and the
seeds it rests on.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(reports: list[dict]) -> dict:
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    seeds: dict[str, list[int]] = defaultdict(list)
    failed: dict[str, int] = defaultdict(int)
    for report in reports:
        workload = report["workload"]
        seeds[workload].append(report["seed"])
        failed[workload] += report["failed"]
        for name, metric in report["metrics"].items():
            values[workload][name].append(metric["value"])
            units[name] = metric["unit"]
    out = {"env": reports[0]["env"], "workloads": {}}
    for workload, metrics in values.items():
        summary = out["workloads"][workload] = {
            "seeds": seeds[workload], "failed": failed[workload], "metrics": {}}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            summary["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "unit": units[name], "runs": len(vals)}
    return out


if __name__ == "__main__":
    reports = []
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    print(json.dumps(summarize(reports), indent=1, sort_keys=True))
