#!/usr/bin/env python3
"""Compares two sets of primacy_bench runs, or summarizes one set.

    compare.py --base A1.json A2.json ... --new B1.json B2.json ... [--layers]
    compare.py --summarize OUT.json RUN.json ...
    compare.py --self-test

Inputs are files written by `primacy_bench --json` ({"runs": [...]}); a
directory argument stands for every *.json file in it. For each workload x
end-to-end metric, --base/--new prints both medians and quartiles, the
change as a share of the base median (positive = worse), the metric's bound
from BENCHMARK.json, and a verdict:

  regressed   the new median is worse than the base median by more than the
              bound;
  improved    the new median is better by more than the base's quartile
              spread, and new wins at least 9 of 10 runs paired by seed (by
              order when seeds differ);
  unresolved  neither, and the base or new relative spread exceeds the bound
              — unless every new run is better than every base run; never
              for setup_s, whose median alone is gated;
  unchanged   otherwise.

The exit status is 1 if any pairing regressed or is unresolved. --layers adds
the per-layer metrics (no bound, no verdict). --summarize writes medians,
quartiles and relative spreads per workload and metric, with the host facts
the runs recorded, as a baseline file.

    compare.py --bounds RUN.json ...

derives each end-to-end bound from runs of one commit: the larger of the
metric's floor and three times the widest relative quartile spread any
workload shows, rounded up to a whole percent and capped at 0.25. It prints
the derived and the recorded bound and exits 1 if BENCHMARK.json records a
bound below the derived one.
"""
import argparse
import json
import math
import pathlib
import statistics
import sys

SPEC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Bound floors: set-up time is the noisiest reading and gets the largest
# floor; memory and timings get theirs; the ratio depends on the data alone.
FLOORS = {"setup_s": 0.25, "mem_peak_mib": 0.10, "compression_ratio": 0.0}
DEFAULT_FLOOR = 0.05
# Three spreads fit under a bound, so a steady metric's own noise stays
# within a third of it; no bound may exceed a quarter of the median.
SPREADS_PER_BOUND = 3
MAX_BOUND = 0.25
# Set-up takes one to a few dozen milliseconds of thread start-up and first
# calls, whose run-to-run spread on a shared host can exceed any bound
# allowed; only its median is gated, so work moved into set-up still shows.
MEDIAN_ONLY = {"setup_s"}


def load_runs(paths):
    runs = []
    for arg in paths:
        path = pathlib.Path(arg)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            with open(f, encoding="utf-8") as handle:
                runs.extend(json.load(handle)["runs"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(runs, workload, section, metric):
    """(seed, value) for one workload/metric, in input order."""
    out = []
    for run in runs:
        got = run.get(section, {}).get(metric)
        if run["workload"] == workload and got is not None:
            out.append((run.get("seed"), got["value"]))
    return out


def pairs(base, new):
    by_seed = {s: v for s, v in base}
    matched = [(by_seed[s], v) for s, v in new if s in by_seed]
    if matched:
        return matched
    return list(zip([v for _, v in base], [v for _, v in new]))


def verdict(base, new, better, bound, median_only=False):
    """Verdict and signed change (positive = worse) for two value series."""
    b = [v for _, v in base]
    n = [v for _, v in new]
    bq1, bmed, bq3 = quartiles(b)
    nmed = statistics.median(n)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (nmed - bmed) / bmed if bmed else 0.0
    if bound is None:
        return "-", worse
    if worse > bound:
        return "regressed", worse

    def beats(x, y):
        return sign * (x - y) < 0

    matched = pairs(base, new)
    wins = sum(1 for x, y in matched if beats(y, x))
    if (beats(nmed, bmed) and abs(nmed - bmed) > bq3 - bq1 and matched
            and wins >= 0.9 * len(matched)):
        return "improved", worse
    spread = max(relative_spread(b), relative_spread(n))
    if (not median_only and spread > bound
            and not all(beats(y, x) for x in b for y in n)):
        return "unresolved", worse
    return "unchanged", worse


def compare(spec, base_runs, new_runs, layers, out=sys.stdout):
    """Prints the comparison table; returns the list of verdict rows."""
    rows = []
    sections = [("end_to_end", m) for m in spec["end_to_end"]]
    if layers:
        sections += [("per_layer", m) for m in spec["per_layer"]]
    print(f"{'workload':13s} {'metric':36s} {'base [q1, q3]':>34s} "
          f"{'new [q1, q3]':>34s} {'worse':>9s} {'bound':>6s}  verdict",
          file=out)
    for w in spec["workloads"]:
        for section, m in sections:
            base = series(base_runs, w["name"], section, m["name"])
            new = series(new_runs, w["name"], section, m["name"])
            if not base or not new:
                continue
            bound = m.get("bound")
            result, worse = verdict(base, new, m["better"], bound,
                                    m["name"] in MEDIAN_ONLY)
            cells = []
            for values in (base, new):
                q1, med, q3 = quartiles([v for _, v in values])
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            bound_text = "-" if bound is None else f"{bound * 100:.1f}%"
            print(f"{w['name']:13s} {m['name']:36s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {worse * 100:+8.2f}% {bound_text:>6s}  "
                  f"{result}", file=out)
            rows.append((w["name"], m["name"], result))
    return rows


def relative_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def derive_bounds(spec, runs):
    """{metric: (widest relative spread, derived bound)} for end-to-end."""
    derived = {}
    for m in spec["end_to_end"]:
        widest = 0.0
        for w in spec["workloads"]:
            values = [v for _, v in series(runs, w["name"], "end_to_end",
                                           m["name"])]
            if len(values) >= 2:
                widest = max(widest, relative_spread(values))
        bound = max(FLOORS.get(m["name"], DEFAULT_FLOOR),
                    SPREADS_PER_BOUND * widest)
        # round() first, so 3 x 0.02 does not ceil to 0.07.
        bound = math.ceil(round(bound * 100, 6)) / 100
        derived[m["name"]] = (widest, min(MAX_BOUND, bound))
    return derived


def check_bounds(spec, runs, out=sys.stdout):
    """Prints derived against recorded bounds; returns the metrics whose
    recorded bound is below the derived one."""
    low = []
    derived = derive_bounds(spec, runs)
    print(f"{'metric':20s} {'widest spread':>14s} {'derived':>8s} "
          f"{'recorded':>9s}", file=out)
    for m in spec["end_to_end"]:
        widest, bound = derived[m["name"]]
        print(f"{m['name']:20s} {widest * 100:13.2f}% {bound:8.2f} "
              f"{m['bound']:9.2f}", file=out)
        if m["bound"] < bound:
            low.append(m["name"])
    return low


def summarize(runs):
    first = runs[0] if runs else {}
    summary = {key: first.get(key) for key in
               ("nproc", "isa", "build_type", "warmup_s", "window_s")}
    summary["workloads"] = {}
    for run in runs:
        summary["workloads"].setdefault(run["workload"], {})
    for w, entry in summary["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            names = []
            for run in runs:
                if run["workload"] == w:
                    for name in run.get(section, {}):
                        if name not in names:
                            names.append(name)
            stats = {}
            for name in names:
                values = [v for _, v in series(runs, w, section, name)]
                q1, med, q3 = quartiles(values)
                unit = next(r[section][name]["unit"] for r in runs
                            if r["workload"] == w
                            and name in r.get(section, {}))
                stats[name] = {"median": med, "q1": q1, "q3": q3,
                               "iqr_rel": (q3 - q1) / med if med else 0.0,
                               "unit": unit, "runs": len(values)}
            if stats:
                entry[section] = stats
    return summary


def self_test():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [
                {"name": "rate", "unit": "1/s", "better": "higher",
                 "bound": 0.05},
                {"name": "lat", "unit": "us", "better": "lower",
                 "bound": 0.10}],
            "per_layer": [{"name": "layer.x", "unit": "count",
                           "better": "lower"}]}

    def runs(rates, lats):
        return [{"workload": "w", "seed": i,
                 "end_to_end": {"rate": {"value": r, "unit": "1/s"},
                                "lat": {"value": l, "unit": "us"}},
                 "per_layer": {"layer.x": {"value": 1.0, "unit": "count"}}}
                for i, (r, l) in enumerate(zip(rates, lats))]

    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    lat = [50, 51, 49, 50, 50, 52, 48, 50, 51, 49]
    cases = [
        ("same runs", runs(steady, lat), runs(steady, lat),
         {"rate": "unchanged", "lat": "unchanged"}),
        ("rate 20% lower", runs(steady, lat),
         runs([v * 0.8 for v in steady], lat),
         {"rate": "regressed", "lat": "unchanged"}),
        ("latency 20% lower", runs(steady, lat),
         runs(steady, [v * 0.8 for v in lat]),
         {"rate": "unchanged", "lat": "improved"}),
        ("noisy base, small loss", runs([60, 140, 80, 120, 100, 70, 130, 90,
                                         110, 100], lat),
         runs([v * 0.98 for v in steady], lat),
         {"rate": "unresolved", "lat": "unchanged"}),
        ("noisy but every new run better", runs([60, 70, 80, 90, 65, 75, 85,
                                                 95, 62, 72], lat),
         runs([200, 260, 300, 220, 240, 280, 210, 250, 290, 230], lat),
         {"rate": "improved", "lat": "unchanged"}),
    ]
    failures = 0
    sink = open("/dev/null", "w", encoding="utf-8")
    for name, base, new, expected in cases:
        got = {metric: v for _, metric, v in compare(spec, base, new, False,
                                                      sink)}
        if got != expected:
            failures += 1
            print(f"self-test {name}: expected {expected}, got {got}")
    noisy_base = list(enumerate([60, 140, 80, 120, 100, 70, 130, 90, 110,
                                 100]))
    small_loss = [(i, v * 0.98) for i, v in enumerate(steady)]
    if verdict(noisy_base, small_loss, "higher", 0.05, True)[0] != "unchanged":
        failures += 1
        print("self-test median-only: a noisy metric was not judged by its "
              "median alone")
    layered = compare(spec, runs(steady, lat), runs(steady, lat), True, sink)
    if ("w", "layer.x", "-") not in layered:
        failures += 1
        print("self-test layers: per-layer row missing")
    summary = summarize(runs(steady, lat))
    rate = summary["workloads"]["w"]["end_to_end"]["rate"]
    if rate["median"] != 100 or rate["runs"] != 10 or rate["q1"] > rate["q3"]:
        failures += 1
        print(f"self-test summarize: unexpected {rate}")
    # steady: quartiles 99 and 101 (2%); lat: 49 and 51 (4%).
    expected = {"rate": 0.06, "lat": 0.12}
    got = {k: b for k, (_, b) in derive_bounds(spec, runs(steady, lat)).items()}
    noisy = derive_bounds(spec, runs([60, 140, 80, 120, 100, 70, 130, 90,
                                      110, 100], lat))["rate"][1]
    low = check_bounds(spec, runs(steady, lat), sink)
    if got != expected or noisy != 0.25 or sorted(low) != ["lat", "rate"]:
        failures += 1
        print(f"self-test bounds: got {got}, noisy {noisy}, low {low}")
    sink.close()
    print("compare.py self-test:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+")
    parser.add_argument("--new", nargs="+")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--summarize", nargs="+", metavar=("OUT", "RUN"))
    parser.add_argument("--bounds", nargs="+", metavar="RUN")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.bounds:
        with open(SPEC_PATH, encoding="utf-8") as f:
            spec = json.load(f)
        return 1 if check_bounds(spec, load_runs(args.bounds)) else 0
    if args.summarize:
        if len(args.summarize) < 2:
            parser.error("--summarize needs OUT and at least one run file")
        out, *inputs = args.summarize
        with open(out, "w", encoding="utf-8") as f:
            json.dump(summarize(load_runs(inputs)), f, indent=1)
            f.write("\n")
        return 0
    if not args.base or not args.new:
        parser.error("give --base and --new run files")
    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    rows = compare(spec, load_runs(args.base), load_runs(args.new),
                   args.layers)
    bad = [r for r in rows if r[2] in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
