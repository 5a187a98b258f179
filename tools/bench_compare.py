#!/usr/bin/env python3
"""Records and compares perfbench trajectories (BENCH_<n>.json files).

Three subcommands:

  collect  Runs perfbench/run.py in two checkouts (a parent and a change),
           alternating which side runs first, for every workload, seed
           and trace mode, and writes one BENCH file with every run's
           metrics plus per-side medians. Runs already in the output file
           are kept, so a later call can add seeds to one workload.

      python3 tools/bench_compare.py collect --parent ../parent --change . \\
          --seeds 1 2 3 --seconds 20 --out BENCH_16.json

  compare  Reads a BENCH file and prints, per workload and metric, the
           parent and change medians. A metric is flagged only when its
           median moves by more than its spread across seeds (the larger
           of the two sides' interquartile ranges; with three seeds that
           is half their range). The flag says whether the move is better
           or worse, using the direction declared in BENCHMARK.json. Exits
           1 when any end-to-end metric is flagged worse.

      python3 tools/bench_compare.py compare BENCH_16.json

  obs-overhead  Reads two bench_x_service --json files, one from an
           SEPSP_OBS=ON build and one from an SEPSP_OBS=OFF build on the
           same host, and prints ON/OFF ratios of the hit_scaling rows'
           qps and p50 per client count. It reports; it gates nothing.

      python3 tools/bench_compare.py obs-overhead on.json off.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("update-neg3d", "serve-mixed", "prep-mesh")


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = json.loads(lines[-2])["env"] if len(lines) > 1 else {}
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "env": env}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, q3 = quartiles(values)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "min": min(values), "max": max(values)}
    return out


def collect(args):
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    out = Path(args.out)
    # Runs already in the output file are kept; new ones are appended.
    old = json.loads(out.read_text()) if out.is_file() else {}
    runs = old.get("runs", {side: {} for side in sides})
    order = list(sides)
    for workload in args.workloads:
        for trace in args.traces:
            key = f"{workload}/trace{trace}"
            for side in sides:
                runs[side].setdefault(key, [])
            for seed in args.seeds:
                for side in order:
                    print(f"{side} {key} seed {seed}", file=sys.stderr)
                    runs[side][key].append(run_once(
                        sides[side], workload, seed, args.seconds, trace))
                order.reverse()  # alternate which side runs first
    bench = {
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {args.seconds} --trace <0|1>",
        "runs": runs,
        "medians": {side: {key: summarize(r) for key, r in by_key.items()}
                    for side, by_key in runs.items()},
    }
    if args.note or "note" in old:
        bench["note"] = args.note or old["note"]
    out.write_text(json.dumps(bench, indent=1) + "\n")


def directions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["better"] for m in spec["end_to_end"]},
            {m["name"]: m["better"] for m in spec["per_layer"]})


def compare(args):
    bench = json.loads(Path(args.bench).read_text())
    end_to_end, per_layer = directions()
    worse_end_to_end = 0
    for key, parent in bench["medians"]["parent"].items():
        change = bench["medians"]["change"][key]
        print(f"== {key}")
        for name, p in parent.items():
            c = change[name]
            if p["max"] == p["min"] == c["max"] == c["min"] == 0:
                continue  # not reported by this workload
            spread = max(p["q3"] - p["q1"], c["q3"] - c["q1"])
            delta = c["median"] - p["median"]
            flag = ""
            if abs(delta) > spread and delta != 0:
                better = end_to_end.get(name) or per_layer.get(name, "lower")
                improved = (delta < 0) == (better == "lower")
                flag = "better" if improved else "WORSE"
                if not improved and name in end_to_end:
                    worse_end_to_end += 1
            elif args.flagged_only:
                continue
            base = f" ({delta / p['median']:+.1%})" if p["median"] else ""
            print(f"  {name:36s} {p['median']:>14.6g} -> {c['median']:<14.6g}"
                  f" spread {spread:<10.3g}{base} {flag}")
        for side, runs in (("parent", bench["runs"]["parent"][key]),
                           ("change", bench["runs"]["change"][key])):
            failed = sum(r["failed"] for r in runs)
            wrong = sum(not r["correct"] for r in runs)
            if failed or wrong:
                print(f"  {side}: {failed} failed ops, {wrong} incorrect runs")
    return 1 if worse_end_to_end else 0


def obs_overhead(args):
    sides = []
    for path, leg in ((args.on, 1), (args.off, 0)):
        rows = [r for r in json.loads(Path(path).read_text())
                if r.get("kind") == "hit_scaling"]
        if not rows:
            sys.exit(f"{path}: no hit_scaling rows")
        if any(r.get("obs", leg) != leg for r in rows):
            sys.exit(f"{path}: hit_scaling rows are not from an "
                     f"SEPSP_OBS={'ON' if leg else 'OFF'} build")
        sides.append({r["clients"]: r for r in rows})
    on, off = sides
    print(f"{'clients':>7s} {'qps ON':>12s} {'qps OFF':>12s} {'ON/OFF':>7s}"
          f" {'p50 ON':>9s} {'p50 OFF':>9s} {'ON/OFF':>7s}")
    for clients in sorted(on.keys() & off.keys()):
        a, b = on[clients], off[clients]
        print(f"{clients:>7d} {a['qps']:>12.0f} {b['qps']:>12.0f}"
              f" {a['qps'] / b['qps']:>7.3f} {a['p50_us']:>9.3f}"
              f" {b['p50_us']:>9.3f} {a['p50_us'] / b['p50_us']:>7.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", default=str(ROOT))
    c.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    c.add_argument("--seconds", type=float, default=20)
    c.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    c.add_argument("--traces", type=int, nargs="+", default=[0, 1])
    c.add_argument("--note", default="")
    c.add_argument("--out", required=True)
    m = sub.add_parser("compare")
    m.add_argument("bench")
    m.add_argument("--flagged-only", action="store_true")
    o = sub.add_parser("obs-overhead")
    o.add_argument("on", help="bench_x_service --json of an SEPSP_OBS=ON build")
    o.add_argument("off", help="the same of an SEPSP_OBS=OFF build")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    if args.command == "obs-overhead":
        return obs_overhead(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
