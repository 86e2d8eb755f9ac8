#!/usr/bin/env bash
# Regenerate the `kernels` record of BENCH_simrate.json: the GEMM
# simulation rate that scripts/check.sh's perf gate compares against
# (salam-query regress, >20% drop fails). Builds
# table4_simulation_time in Release, runs its single-run GEMM probe
# five times, keeps the fastest run (regress compares best-of too),
# and stamps the record with the git SHA, build type and host
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
    --target table4_simulation_time >/dev/null

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
for run in 1 2 3 4 5; do
    "${build_dir}/bench/table4_simulation_time" --gemm-only --no-sweep \
        --simrate-out "${work}/simrate.${run}.json" \
        >"${work}/table4.${run}.out"
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

python3 - "${record}" "${sha}" "${build_type}" "${jobs}" \
    "${work}"/simrate.*.json <<'PYEOF'
import json, os, sys

record, sha, build_type, nproc = sys.argv[1:5]
runs = [json.load(open(p)) for p in sys.argv[5:]]

fastest = {}
for run in runs:
    for k in run["kernels"]:
        best = fastest.get(k["kernel"])
        if best is None or k["ticks_per_sec"] > best["ticks_per_sec"]:
            fastest[k["kernel"]] = k
kernels = [dict(k, git_sha=sha, build_type=build_type, nproc=int(nproc))
           for k in fastest.values()]
array = "[\n" + ",\n".join("  " + json.dumps(k) for k in kernels) + "\n ]"

if os.path.exists(record):
    # Splice the new array over the old one so every other record
    # keeps its exact text.
    text = open(record).read()
    start = text.index("[", text.index('"kernels"'))
    _, end = json.JSONDecoder().raw_decode(text, start)
    text = text[:start] + array + text[end:]
else:
    text = ('{"bench": %s,\n "clock_period_ticks": %d,\n "kernels": %s}\n'
            % (json.dumps(runs[0]["bench"]), runs[0]["clock_period_ticks"],
               array))
json.loads(text)
open(record, "w").write(text)
for k in kernels:
    print(f"{record}: {k['kernel']} {k['cycles']} cycles, "
          f"{k['wall_seconds']:.4f} s, {k['ticks_per_sec']:.4g} ticks/s "
          f"({sha}, {build_type}, nproc {nproc})")
PYEOF
