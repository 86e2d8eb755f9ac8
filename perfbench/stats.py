#!/usr/bin/env python3
"""Steadiness self-check and parent-vs-change comparison for perfbench.

    # Two sets of runs of the same build: every end-to-end metric's
    # spread (quartile distance over median) against its bound, the
    # drift between the two sets' medians, and bit-for-bit repeats of
    # the exact count metrics on a tuning seed and a held-out seed.
    python3 perfbench/stats.py steady [--runs 10] [--workloads a,b]

    # Alternating pairs of a parent checkout and a change checkout
    # (choosing-metrics guide, section 8).
    python3 perfbench/stats.py compare --base ../parent --change . \\
        --workload gemm-full --metric points_per_s [--pairs 10]

Both read BENCHMARK.json for workloads, run_seconds and bounds, and
run each side's own perfbench/run.py, so a checkout measures its own
code with identical benchmark settings.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Per-layer metrics that count simulated work: deterministic for a
# seed, so any difference between two runs of one seed is a bug.
EXACT_COUNTS = ["core.dyn_insts", "core.sim_cycles", "core.stall_cycles",
                "sim.events", "mem.spm_accesses", "drive.trace_bytes"]

# Seeds the benchmark was tuned on, and one it never was.
TUNING_SEED = 1
HELD_OUT_SEED = 9001


def load_spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(root, spec, workload, seed, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output "
                           f"(exit {out.returncode})\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result "
                           f"(exit {out.returncode})\n"
                           + "\n".join(lines[-12:]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    """Quartile distance over median, as the acceptance rule takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def steady(args):
    spec = load_spec(ROOT)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    ok = True
    for wl in names:
        sets = []
        for s in range(2):
            runs = []
            for r in range(args.runs):
                runs.append(run_once(ROOT, spec, wl, args.seed_base + r, 0))
                print(f"{wl} set {s + 1} seed {args.seed_base + r}: "
                      + json.dumps(runs[-1]), file=sys.stderr, flush=True)
            sets.append(runs)
            print(f"{wl}: set {s + 1} done", file=sys.stderr, flush=True)
        print(f"\n{wl}  ({args.runs} seeds x 2 sets)")
        print(f"  {'metric':18} {'median1':>12} {'median2':>12} "
              f"{'spread1':>8} {'spread2':>8} {'drift':>8} {'bound':>6}")
        for name, m in bounds.items():
            sp1, med1 = spread([r[name] for r in sets[0]])
            sp2, med2 = spread([r[name] for r in sets[1]])
            worse = (med2 - med1) / med1 if m["better"] == "lower" \
                else (med1 - med2) / med1
            bound = m["bound"]
            bad = worse > bound or (name != "setup_s" and
                                    max(sp1, sp2) > bound)
            warn = max(sp1, sp2) > bound / 3 and name != "setup_s"
            ok &= not bad
            print(f"  {name:18} {med1:12.6g} {med2:12.6g} {sp1:8.3f} "
                  f"{sp2:8.3f} {worse:8.3f} {bound:6.2f}"
                  f"{'  FAIL' if bad else '  (above a third)' if warn else ''}")
        for seed in (TUNING_SEED, HELD_OUT_SEED):
            a = run_once(ROOT, spec, wl, seed, 1)
            b = run_once(ROOT, spec, wl, seed, 1)
            diff = [k for k in EXACT_COUNTS if a[k] != b[k]]
            ok &= not diff
            print(f"  exact counts, seed {seed}: "
                  + ("identical" if not diff else "DIFFER in " + ", ".join(diff)))
    print("\nsteady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def compare(args):
    base, change = pathlib.Path(args.base).resolve(), \
        pathlib.Path(args.change).resolve()
    spec = load_spec(change)
    metric = next(m for m in spec["end_to_end"] if m["name"] == args.metric)
    sign = 1 if metric["better"] == "higher" else -1
    base_vals, change_vals, wins = [], [], 0
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = [(base, base_vals), (change, change_vals)]
        if i % 2:
            order.reverse()
        for root, vals in order:
            vals.append(run_once(root, spec, args.workload, seed, 0)[args.metric])
        d = sign * (change_vals[-1] - base_vals[-1])
        wins += d > 0
        print(f"pair {i + 1}: base {base_vals[-1]:.6g} change "
              f"{change_vals[-1]:.6g}", file=sys.stderr, flush=True)
    qb = statistics.quantiles(base_vals, n=4)
    qc = statistics.quantiles(change_vals, n=4)
    base_iqr = qb[2] - qb[0]
    gain = sign * (qc[1] - qb[1])
    claim = wins >= 0.9 * args.pairs and gain > base_iqr
    regress = -gain / qb[1] > metric["bound"]
    print(f"{args.workload} {args.metric} ({metric['unit']}, "
          f"{metric['better']} is better), {args.pairs} alternating pairs")
    print(f"  base   median {qb[1]:.6g}  quartiles {qb[0]:.6g} .. {qb[2]:.6g}")
    print(f"  change median {qc[1]:.6g}  quartiles {qc[0]:.6g} .. {qc[2]:.6g}")
    print(f"  change wins {wins}/{args.pairs}; median gain {gain:.6g} vs "
          f"base quartile distance {base_iqr:.6g}")
    print("  verdict: " + ("gain" if claim else
                           "regression beyond bound" if regress else
                           "no claimable difference"))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steady")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed-base", type=int, default=100)
    s.add_argument("--workloads", default="")
    c = sub.add_parser("compare")
    c.add_argument("--base", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--workload", required=True)
    c.add_argument("--metric", default="points_per_s")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--seed-base", type=int, default=200)
    args = p.parse_args()
    return steady(args) if args.cmd == "steady" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
