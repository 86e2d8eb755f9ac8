#!/usr/bin/env bash
# Regenerate the script-written records of BENCH_simrate.json:
#  - `kernels`: the GEMM simulation rate that scripts/check.sh's perf
#    gate compares against (salam-query regress, >20% drop fails).
#    table4_simulation_time's single-run GEMM probe runs five times
#    and the fastest run is kept (regress compares best-of too).
#  - `fast_sweep`: fig13's 20-point sweep on one thread in full and
#    in fast (trace-replay) mode, alternating, best of three each.
# Each record is stamped with the git SHA, build type and host
# concurrency. Every other record in the file is kept as it is.
#
# Usage: scripts/bench_record.sh [build-dir] [record-file]
#   build-dir   Release tree to (re)use; default build-perf/, the
#               tree check.sh's perf gate builds.
#   record-file JSON to rewrite; default BENCH_simrate.json.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-perf}"
record="${2:-${repo_root}/BENCH_simrate.json}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" -j "${jobs}" \
    --target table4_simulation_time fig13_gemm_pareto >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
for run in 1 2 3 4 5; do
    "${build_dir}/bench/table4_simulation_time" --gemm-only --no-sweep \
        --simrate-out "${work}/simrate.${run}.json" \
        >"${work}/table4.${run}.out"
done
for run in 1 2 3; do
    for mode in full fast; do
        "${build_dir}/bench/fig13_gemm_pareto" --sweep-threads 1 \
            --sim-mode "${mode}" >"${work}/fig13.${mode}.${run}.out"
    done
done

sha="$(git -C "${repo_root}" rev-parse --short=12 HEAD 2>/dev/null ||
       echo unknown)"
if [[ "${sha}" != unknown ]] &&
   [[ -n "$(git -C "${repo_root}" status --porcelain \
            --untracked-files=no 2>/dev/null)" ]]; then
    sha="${sha}-dirty"
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
    "${build_dir}/CMakeCache.txt")"

python3 - "${record}" "${sha}" "${build_type}" "${jobs}" "${work}" \
    <<'PYEOF'
import glob, json, os, re, sys

record, sha, build_type, nproc, work = sys.argv[1:6]
stamp = dict(git_sha=sha, build_type=build_type, nproc=int(nproc))
runs = [json.load(open(p))
        for p in sorted(glob.glob(os.path.join(work, "simrate.*.json")))]

fastest = {}
for run in runs:
    for k in run["kernels"]:
        best = fastest.get(k["kernel"])
        if best is None or k["ticks_per_sec"] > best["ticks_per_sec"]:
            fastest[k["kernel"]] = k
kernels = [dict(k, **stamp) for k in fastest.values()]
kernels_text = ("[\n" + ",\n".join("  " + json.dumps(k) for k in kernels)
                + "\n ]")

def sweep_wall(mode):
    """Best fig13 wall time of one mode, from its summary line."""
    walls = []
    for path in glob.glob(os.path.join(work, f"fig13.{mode}.*.out")):
        text = open(path).read()
        m = re.search(r"\((\d+) points, (\d+) threads?, ([0-9.]+)s wall\)",
                      text)
        walls.append((float(m.group(3)), int(m.group(1)),
                      int(m.group(2))))
    return min(walls)

full, points, threads = sweep_wall("full")
fast = sweep_wall("fast")[0]
fast_sweep = dict(bench="fig13_gemm_pareto", points=points,
                  threads=threads, full_wall_seconds=full,
                  fast_wall_seconds=fast,
                  end_to_end_speedup=round(full / fast, 3), **stamp)
fast_sweep_text = json.dumps(fast_sweep)

def splice(text, key, value_text):
    """Replace @p key's value in place, or add the key at the end."""
    at = text.find('"%s"' % key)
    if at < 0:
        end = text.rindex("}")
        return (text[:end].rstrip() + ',\n "%s": %s}\n'
                % (key, value_text))
    start = text.index(":", at) + 1
    while text[start] in " \n":
        start += 1
    _, end = json.JSONDecoder().raw_decode(text, start)
    return text[:start] + value_text + text[end:]

if os.path.exists(record):
    # Splice the new records over the old ones so every other record
    # keeps its exact text.
    text = open(record).read()
else:
    text = ('{"bench": %s,\n "clock_period_ticks": %d,\n "kernels": []}\n'
            % (json.dumps(runs[0]["bench"]), runs[0]["clock_period_ticks"]))
text = splice(text, "kernels", kernels_text)
text = splice(text, "fast_sweep", fast_sweep_text)
json.loads(text)
open(record, "w").write(text)
for k in kernels:
    print(f"{record}: {k['kernel']} {k['cycles']} cycles, "
          f"{k['wall_seconds']:.4f} s, {k['ticks_per_sec']:.4g} ticks/s "
          f"({sha}, {build_type}, nproc {nproc})")
print(f"{record}: fig13 {points} points, {threads} thread: full "
      f"{full:.2f} s, fast {fast:.2f} s ({full / fast:.2f}x)")
PYEOF
