"""Compare two result sets written by ``run.py --record``.

One row per (workload, metric): each side's median and quartiles, the
pairs the new side won, and a verdict by these rules:

- **improved**: at least ten pairs, the new side wins at least 9/10 of
  them (ties count for neither), and the medians differ by more than
  the old side's interquartile distance;
- **worse**: the new median is worse than the old by more than the
  metric's bound from BENCHMARK.json;
- **unresolved**: the old side's own spread (interquartile distance
  over median) is wider than the bound, unless every new run beats
  every old run;
- **no worse**: otherwise.

Runs pair up by seed when both sides ran the same seeds, else in file
order.  Metrics without a bound (per-layer) get no verdict.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .stats import summary


def load(path: str) -> Dict[Tuple[str, bool], List[dict]]:
    runs: Dict[Tuple[str, bool], List[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def _pairs(old: List[dict], new: List[dict]) -> List[Tuple[dict, dict]]:
    old_by_seed = {r["seed"]: r for r in old}
    new_by_seed = {r["seed"]: r for r in new}
    if set(old_by_seed) == set(new_by_seed) and len(old_by_seed) == len(old):
        return [(old_by_seed[s], new_by_seed[s]) for s in sorted(old_by_seed)]
    return list(zip(old, new))


def verdict(old: List[float], new: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    so, sn = summary(old), summary(new)
    old_iqr = so["q3"] - so["q1"]
    gain = sign * (sn["median"] - so["median"])
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > old_iqr:
        return "improved", wins
    if -gain > bound * abs(so["median"]):
        return "worse", wins
    if old_iqr > bound * abs(so["median"]):
        all_better = all(sign * (b - a) > 0 for a in old for b in new)
        return ("no worse" if all_better else "unresolved"), wins
    return "no worse", wins


def compare(config: dict, old_path: str, new_path: str) -> str:
    specs = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    old_runs, new_runs = load(old_path), load(new_path)
    lines = [
        f"{'workload':<15s} {'metric':<38s} {'old median [q1, q3]':>32s} "
        f"{'new median [q1, q3]':>32s} {'wins':>7s}  verdict"
    ]
    for key in sorted(set(old_runs) & set(new_runs)):
        pairs = _pairs(old_runs[key], new_runs[key])
        names = sorted(set(old_runs[key][0]["metrics"]) & set(new_runs[key][0]["metrics"]))
        for name in names:
            spec = specs.get(name, {"better": "lower"})
            old = [r["metrics"][name] for r in old_runs[key]]
            new = [r["metrics"][name] for r in new_runs[key]]
            paired = [(a["metrics"][name], b["metrics"][name]) for a, b in pairs]
            if "bound" in spec:
                result, wins = verdict(old, new, paired, spec["better"], spec["bound"])
            else:
                result, wins = "-", sum(
                    1 for a, b in paired
                    if (b - a) * (1 if spec["better"] == "higher" else -1) > 0)
            lines.append(
                f"{key[0]:<15s} {name:<38s} {_cell(old):>32s} {_cell(new):>32s} "
                f"{wins:>3d}/{len(paired):<3d}  {result}"
            )
    return "\n".join(lines)


def _cell(values: List[float]) -> str:
    s = summary(values)
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
