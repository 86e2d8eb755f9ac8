#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite, and
# additionally build warning-clean under -Wall -Wextra -Werror.
#
# Usage: scripts/check.sh [build-dir]
#   build-dir defaults to build/ (reused if already configured).
# The strict -Werror pass uses its own tree (build-strict/) so it
# never pollutes the primary build's cache; likewise the sanitizer
# trees (build-asan/, build-tsan/) and the Release perf tree
# (build-perf/), which guards the GEMM simulation rate against a
# >20% regression from the recorded BENCH_simrate.json baseline.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
strict_dir="${repo_root}/build-strict"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: configure + build (${build_dir})"
cmake -S "${repo_root}" -B "${build_dir}" >/dev/null
cmake --build "${build_dir}" -j "${jobs}"

echo "== tier-1: ctest"
ctest --test-dir "${build_dir}" --output-on-failure

echo "== smoke: GEMM profiler + interval stats"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
"${build_dir}/bench/fig14_gemm_stalls" \
    --profile-out "${smoke_dir}/profile.json" \
    --stats-out "${smoke_dir}/stats.json" \
    --stats-interval 1000 >/dev/null
python3 - "${smoke_dir}" <<'PYEOF'
import json, sys
d = sys.argv[1]

prof = json.load(open(f"{d}/profile.json"))
for key in ("schema", "path_cycles", "sink_commit_cycle", "causes",
            "by_instruction", "by_block"):
    assert key in prof, f"profile.json missing '{key}'"
assert prof["path_cycles"] > 0, "empty critical path"
assert sum(prof["causes"].values()) == prof["path_cycles"], \
    "cause attribution does not sum to the path length"
assert prof["by_instruction"], "no instruction hotspots"

folded = open(f"{d}/profile.json.folded").read().splitlines()
assert folded and all(";" in line for line in folded), \
    "malformed folded stacks"

rows = [json.loads(line)
        for line in open(f"{d}/stats.json.intervals.jsonl")]
assert rows, "no interval rows"
for row in rows:
    for key in ("index", "start_tick", "end_tick", "stats"):
        assert key in row, f"interval row missing '{key}'"
print(f"profiler smoke ok: path={prof['path_cycles']} cycles, "
      f"{len(rows)} interval rows")
PYEOF

echo "== smoke: fault-injection campaign"
camp="${build_dir}/bench/fault_campaign"
camp_dir="${smoke_dir}/campaign"
mkdir -p "${camp_dir}"

run_campaign() {
    # run_campaign <tag> <expected-exit> [spec...]
    local tag="$1" want_exit="$2" spec
    shift 2
    local args=(--watchdog 2000000
                --dump-out "${camp_dir}/${tag}.dump.json"
                --store-out "${camp_dir}/${tag}.store")
    for spec in "$@"; do
        args+=(--inject "${spec}")
    done
    local got=0
    "${camp}" "${args[@]}" >"${camp_dir}/${tag}.out" 2>&1 || got=$?
    if [[ "${got}" -ne "${want_exit}" ]]; then
        echo "campaign '${tag}' exited ${got}, expected ${want_exit}"
        cat "${camp_dir}/${tag}.out"
        exit 1
    fi
}

# One scenario per fault kind; every run must terminate gracefully
# (exit 0 or a clean fatal with artifacts — never a hang or abort).
run_campaign clean          0
run_campaign bit_flip       1 "bit_flip@spm:nth=100:bit=30"
run_campaign drop_response  1 "drop_response@spm:nth=300"
run_campaign drop_irq       1 "drop_irq@relu.comm:nth=1"
run_campaign spurious_irq   1 "spurious_irq@host:nth=2"
run_campaign retry_storm    0 "retry_storm@spm:nth=10:count=20"
run_campaign delay_response 0 "delay_response@spm:nth=50:count=5:delay=100000"
run_campaign dma_stall      0 "dma_stall@dma:nth=1:delay=500000"
run_campaign fabric_retry_storm 0 "retry_storm@c0.xbar:nth=5:count=10" \
    "retry_storm@global_xbar:nth=5:count=10"

# Read each scenario's records back through salam-query.
camp_tags=(clean bit_flip drop_response drop_irq spurious_irq
           retry_storm delay_response dma_stall fabric_retry_storm)
for tag in "${camp_tags[@]}"; do
    for kind in run injection; do
        "${build_dir}/src/tools/salam-query" list \
            "${camp_dir}/${tag}.store" --kind "${kind}" --json \
            >"${camp_dir}/${tag}.${kind}.json"
    done
done

python3 - "${camp_dir}" <<'PYEOF'
import json, re, sys
d = sys.argv[1]

def records(tag, kind):
    return json.load(open(f"{d}/{tag}.{kind}.json"))

def outcome(tag):
    rows = records(tag, "run")
    assert len(rows) == 1, f"{tag}: {len(rows)} run records, not 1"
    return rows[0]["outcome"]

expected = {
    "clean": "ok", "bit_flip": "fault", "drop_response": "deadlock",
    "drop_irq": "deadlock", "spurious_irq": "fault",
    "retry_storm": "ok", "delay_response": "ok", "dma_stall": "ok",
    "fabric_retry_storm": "ok",
}
for tag, want in expected.items():
    got = outcome(tag)
    assert got == want, f"{tag}: outcome {got!r}, expected {want!r}"

# A run that ends ok records one kind="injection" record per fault
# the bench reports as fired (the log line is absent without
# --inject, and the summary line always carries the count).
for tag, want in expected.items():
    if want != "ok":
        continue
    out = open(f"{d}/{tag}.out").read()
    log = re.search(r"^injections fired: (\d+)$", out, re.M)
    summary = re.search(r"(\d+) injections fired$", out, re.M)
    assert summary, f"{tag}: no summary line"
    fired = int(summary.group(1))
    assert fired == (int(log.group(1)) if log else 0), \
        f"{tag}: the injection log and the summary disagree"
    got = len(records(tag, "injection"))
    assert got == fired, \
        f"{tag}: {got} injection records, {fired} injections fired"

# Hang dumps must name the component that is actually stuck.
for tag, stuck in (("drop_response", "c0.relu"), ("drop_irq", "host")):
    dump = json.load(open(f"{d}/{tag}.dump.json"))
    names = [s["object"] for s in dump["suspects"]]
    assert stuck in names, \
        f"{tag}: dump suspects {names} do not include {stuck}"
print("fault campaign ok: " +
      ", ".join(f"{t}={o}" for t, o in expected.items()))
PYEOF

echo "== smoke: replay determinism (same seed => same faults)"
for n in 1 2; do
    got=0
    "${camp}" --inject 'bit_flip@spm' --inject-seed 42 \
        >"${camp_dir}/replay.${n}.out" 2>&1 || got=$?
    if [[ "${got}" -ne 1 ]]; then
        echo "replay run ${n} exited ${got}, expected 1"
        cat "${camp_dir}/replay.${n}.out"
        exit 1
    fi
done
if ! cmp -s "${camp_dir}/replay.1.out" "${camp_dir}/replay.2.out"; then
    echo "replay runs diverged with the same seed:"
    diff "${camp_dir}/replay.1.out" "${camp_dir}/replay.2.out" || true
    exit 1
fi
echo "replay deterministic"

echo "== sanitizers: ASan + UBSan"
asan_dir="${repo_root}/build-asan"
san_flags="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1"
echo 'int main() { return 0; }' > "${smoke_dir}/probe.cc"
if c++ ${san_flags} -o "${smoke_dir}/probe" "${smoke_dir}/probe.cc" \
        2>/dev/null && "${smoke_dir}/probe"; then
    cmake -S "${repo_root}" -B "${asan_dir}" \
        -DCMAKE_CXX_FLAGS="${san_flags}" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
        >/dev/null
    cmake --build "${asan_dir}" -j "${jobs}"
    # fatal() terminates without unwinding by design, so leak
    # checking would flag every intentional-death test; errors still
    # abort via -fno-sanitize-recover.
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
        ctest --test-dir "${asan_dir}" --output-on-failure
    got=0
    ASAN_OPTIONS=detect_leaks=0 \
        "${asan_dir}/bench/fault_campaign" \
        --inject 'bit_flip@spm:nth=100:bit=30' \
        >"${smoke_dir}/asan_campaign.out" 2>&1 || got=$?
    if [[ "${got}" -ne 1 ]]; then
        echo "sanitized campaign exited ${got}, expected 1"
        cat "${smoke_dir}/asan_campaign.out"
        exit 1
    fi
    echo "sanitizer job ok"
else
    echo "sanitizers unavailable on this toolchain; skipping"
fi

echo "== sanitizers: TSan (sweep concurrency)"
tsan_dir="${repo_root}/build-tsan"
tsan_flags="-fsanitize=thread -g -O1"
if c++ ${tsan_flags} -o "${smoke_dir}/tsan_probe" \
        "${smoke_dir}/probe.cc" 2>/dev/null && \
        "${smoke_dir}/tsan_probe"; then
    cmake -S "${repo_root}" -B "${tsan_dir}" \
        -DCMAKE_CXX_FLAGS="${tsan_flags}" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
        >/dev/null
    # Only the thread-parallel surface needs TSan coverage: the
    # SweepRunner/SimContext tests, the result-store writer, and a
    # real multi-threaded sweep (which now also appends to a store).
    cmake --build "${tsan_dir}" -j "${jobs}" \
        --target drive_test sim_test obs_test fig13_gemm_pareto \
        interconnect_sweep
    TSAN_OPTIONS=halt_on_error=1 \
        "${tsan_dir}/tests/drive/drive_test"
    TSAN_OPTIONS=halt_on_error=1 \
        "${tsan_dir}/tests/sim/sim_test" \
        --gtest_filter='SimContext*'
    TSAN_OPTIONS=halt_on_error=1 \
        "${tsan_dir}/tests/obs/obs_test" \
        --gtest_filter='StoreTest*'
    TSAN_OPTIONS=halt_on_error=1 \
        "${tsan_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
        --store-out "${smoke_dir}/tsan_store" \
        >"${smoke_dir}/tsan_sweep.out"
    # Resume over the just-written store: the checkpoint/resume and
    # durable-flush paths (signal flags, per-point store appends)
    # race-checked under TSan. drive_test above already covers the
    # in-process chaos/interrupt/retry suite.
    TSAN_OPTIONS=halt_on_error=1 \
        "${tsan_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
        --store-out "${smoke_dir}/tsan_store" \
        --resume "${smoke_dir}/tsan_store" \
        >"${smoke_dir}/tsan_resume.out"
    grep -q "cached" "${smoke_dir}/tsan_resume.out"
    # The fast path under worker concurrency: TraceCache::getOrBuild
    # with concurrent waiters, then concurrent replays over one
    # shared IR, trace and prep.
    TSAN_OPTIONS=halt_on_error=1 \
        "${tsan_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
        --sim-mode fast --store-out "${smoke_dir}/tsan_fast_store" \
        >"${smoke_dir}/tsan_fast.out"
    # Interconnect axes under worker concurrency: fabric points all
    # fall back to full simulation, so this drives the AXI bus and
    # crossbar credit paths from 4 sweep threads at once.
    TSAN_OPTIONS=halt_on_error=1 \
        "${tsan_dir}/bench/interconnect_sweep" --sweep-threads 4 \
        --skip-cluster-curve --sim-mode auto \
        --store-out "${smoke_dir}/tsan_ic_store" \
        >"${smoke_dir}/tsan_ic.out"
    echo "tsan job ok"
else
    echo "thread sanitizer unavailable on this toolchain; skipping"
fi

echo "== perf: Release GEMM simulation-rate gate (salam-query)"
perf_dir="${repo_root}/build-perf"
cmake -S "${repo_root}" -B "${perf_dir}" \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${perf_dir}" -j "${jobs}" \
    --target table4_simulation_time salam-query
salam_query="${perf_dir}/src/tools/salam-query"
"${perf_dir}/bench/table4_simulation_time" --gemm-only \
    --simrate-out "${smoke_dir}/simrate.json" \
    --store-out "${smoke_dir}/simrate_store" \
    >"${smoke_dir}/simrate.out"
baseline_file="${repo_root}/BENCH_simrate.json"
# The records are regenerated by scripts/bench_record.sh, never by
# hand: it must rewrite exactly the kernels and fast_sweep records
# and stamp both.
cp "${baseline_file}" "${smoke_dir}/record_copy.json" 2>/dev/null || true
"${repo_root}/scripts/bench_record.sh" "${perf_dir}" \
    "${smoke_dir}/record_copy.json" >/dev/null
python3 - "${baseline_file}" "${smoke_dir}/record_copy.json" <<'PYEOF'
import json, os, sys
fresh = json.load(open(sys.argv[2]))
stamped = fresh["kernels"] + [fresh["fast_sweep"]]
for k in stamped:
    assert k["git_sha"] and k["build_type"] == "Release" and k["nproc"] > 0, k
assert fresh["fast_sweep"]["points"] == 20, fresh["fast_sweep"]
assert fresh["fast_sweep"]["threads"] == 1, fresh["fast_sweep"]
if os.path.exists(sys.argv[1]):
    old = json.load(open(sys.argv[1]))
    changed = {key for key in set(old) | set(fresh)
               if old.get(key) != fresh.get(key)}
    assert changed == {"kernels", "fast_sweep"}, \
        f"bench_record.sh changed records {sorted(changed)}"
print("bench_record.sh ok: kernels and fast_sweep records stamped, "
      "others kept")
PYEOF
if [[ ! -f "${baseline_file}" ]]; then
    "${repo_root}/scripts/bench_record.sh" "${perf_dir}"
    echo "no recorded baseline; wrote ${baseline_file}"
else
    # >20% below the recorded baseline fails the build; wall-clock
    # noise on shared runners stays well inside this margin.
    "${salam_query}" regress "${smoke_dir}/simrate_store" \
        --baseline "${baseline_file}" --max-drop-pct 20 \
        --kernel gemm
    # The gate must actually bite: against a baseline doctored 10x
    # faster, regress has to exit 2 (regression detected).
    python3 - "${baseline_file}" "${smoke_dir}/fast_baseline.json" \
        <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for k in doc["kernels"]:
    k["ticks_per_sec"] *= 10
json.dump(doc, open(sys.argv[2], "w"))
PYEOF
    got=0
    "${salam_query}" regress "${smoke_dir}/simrate_store" \
        --baseline "${smoke_dir}/fast_baseline.json" \
        --max-drop-pct 20 >/dev/null || got=$?
    if [[ "${got}" -ne 2 ]]; then
        echo "regress exited ${got} against a 10x baseline," \
             "expected 2"
        exit 1
    fi
    echo "regress gate bites (exit 2 on doctored baseline)"
fi

echo "== store: fig13 sweep ingest + salam-query list/diff"
cmake --build "${perf_dir}" -j "${jobs}" --target fig13_gemm_pareto
"${perf_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
    --fu-limits 16 --store-out "${smoke_dir}/store_a" \
    >"${smoke_dir}/store_a.out"
"${perf_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
    --fu-limits 64 --store-out "${smoke_dir}/store_b" \
    >"${smoke_dir}/store_b.out"
"${salam_query}" list "${smoke_dir}/store_a" \
    >"${smoke_dir}/store_list.out"
grep -q "fig13_gemm_pareto" "${smoke_dir}/store_list.out"
"${salam_query}" diff "${smoke_dir}/store_a" \
    "${smoke_dir}/store_b" --json \
    >"${smoke_dir}/store_diff.json"
python3 - "${smoke_dir}/store_diff.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
# 5 ports points per FU slice, paired point-by-point.
assert doc["paired"] == 5, f"expected 5 paired rows: {doc['paired']}"
assert doc["only_in_a"] == 0 and doc["only_in_b"] == 0, \
    "sweeps of equal shape left unpaired rows"
for row in doc["rows"]:
    assert row["kernel"] == "gemm", row
    for field in ("cycles", "stall_cycles"):
        assert field in row["fields"], \
            f"point {row['point']}: no {field} delta in diff"
changed = [r["point"] for r in doc["rows"] if r["changed"]]
assert changed, "16 vs 64 FUs produced identical results everywhere"
print(f"store diff ok: 5 paired points, "
      f"cycle/stall deltas at points {changed}")
PYEOF

echo "== fast path: fig13 grid and fig15 sweep, full vs --sim-mode fast bit-identical"
# Each sweep in both sim modes; the diff must pair every point and
# report ZERO changes — the trace-replay fast path's correctness
# contract (wall-clock fields are ignored by diff by convention) —
# and every fast-mode record must come from a replay.
cmake --build "${perf_dir}" -j "${jobs}" --target fig15_gemm_codesign
for gate in fig13_gemm_pareto:20 fig15_gemm_codesign:5; do
    bench="${gate%%:*}"
    points="${gate##*:}"
    for mode in full fast; do
        "${perf_dir}/bench/${bench}" --sweep-threads 4 \
            --sim-mode "${mode}" \
            --store-out "${smoke_dir}/fastgate_${bench}_${mode}" \
            >"${smoke_dir}/fastgate_${bench}_${mode}.out"
    done
    # The sweep tables themselves must match too (modulo the wall line).
    diff <(grep -v wall "${smoke_dir}/fastgate_${bench}_full.out") \
         <(grep -v wall "${smoke_dir}/fastgate_${bench}_fast.out")
    "${salam_query}" diff "${smoke_dir}/fastgate_${bench}_full" \
        "${smoke_dir}/fastgate_${bench}_fast" --json \
        >"${smoke_dir}/fastgate_${bench}_diff.json"
    python3 - "${smoke_dir}/fastgate_${bench}_diff.json" "${points}" \
        "${bench}" "${smoke_dir}/fastgate_${bench}_fast" <<'PYEOF'
import glob, json, sys
doc = json.load(open(sys.argv[1]))
points, bench, fast_store = int(sys.argv[2]), sys.argv[3], sys.argv[4]
assert doc["paired"] == points, \
    f"{bench}: expected {points} paired rows: {doc['paired']}"
assert doc["only_in_a"] == 0 and doc["only_in_b"] == 0, \
    f"{bench}: fast store did not pair with the full store"
changed = [r["point"] for r in doc["rows"] if r["changed"]]
assert not changed, \
    f"{bench}: fast path diverged from full simulation at {changed}"
replayed = sum(line.count('"fast_path":1')
               for path in glob.glob(fast_store + "/records-*.jsonl")
               for line in open(path))
assert replayed == points, \
    f"{bench}: {replayed} of {points} fast-mode points replayed"
print(f"fast-path gate ok: {bench}, {points} paired points replayed, "
      f"0 changed")
PYEOF
done

echo "== interconnect: crossbar-vs-bus A/B, contention, auto fallback"
ic_dir="${smoke_dir}/interconnect"
mkdir -p "${ic_dir}"
cmake --build "${perf_dir}" -j "${jobs}" \
    --target fig10_timing_validation fig16_multi_accelerator \
    interconnect_sweep

# A/B gate: an AXI-like bus wide enough for every access (64B beats)
# with unlimited credits degrades to pure handshake timing, so fig10
# must be cycle-identical to the crossbar — byte-identical output.
"${perf_dir}/bench/fig10_timing_validation" --interconnect xbar \
    >"${ic_dir}/fig10_xbar.out"
"${perf_dir}/bench/fig10_timing_validation" --interconnect axi \
    --bus-width 64 >"${ic_dir}/fig10_axi.out"
if ! diff "${ic_dir}/fig10_xbar.out" "${ic_dir}/fig10_axi.out"; then
    echo "wide AXI bus is not cycle-identical to the crossbar"
    exit 1
fi
echo "fig10 A/B ok: wide bus == crossbar, byte-identical"

# Contention smoke on fig16's multi-accelerator cluster: a 1-credit
# fabric must measurably stretch the DMA-heavy baseline scenario,
# and both runs must land as queryable store records.
"${perf_dir}/bench/fig16_multi_accelerator" --interconnect xbar \
    --store-out "${ic_dir}/fig16_store" >"${ic_dir}/fig16_xbar.out"
"${perf_dir}/bench/fig16_multi_accelerator" --interconnect axi \
    --bus-width 4 --ic-credits 1 \
    --store-out "${ic_dir}/fig16_store" >"${ic_dir}/fig16_axi.out"
"${salam_query}" list "${ic_dir}/fig16_store" \
    >"${ic_dir}/fig16_list.out"
if [[ "$(grep -c "fig16-contention" "${ic_dir}/fig16_list.out")" \
        -ne 2 ]]; then
    echo "expected 2 fig16-contention store records:"
    cat "${ic_dir}/fig16_list.out"
    exit 1
fi
python3 - "${ic_dir}" <<'PYEOF'
import re, sys
d = sys.argv[1]

def summary(tag):
    for line in open(f"{d}/fig16_{tag}.out"):
        m = re.match(r"fig16-summary .*private=(\d+)", line)
        if m:
            return int(m.group(1))
    raise AssertionError(f"no fig16-summary line in {tag} run")

xbar = summary("xbar")
axi = summary("axi")
assert axi >= 1.05 * xbar, (
    f"narrow 1-credit bus shows no contention: {axi} vs {xbar}")
print(f"fig16 contention ok: narrow/low-credit bus "
      f"{axi / xbar:.2f}x the crossbar baseline")
PYEOF

# Sweeping an interconnect axis under --sim-mode auto must fall back
# to full simulation on every fabric point (the trace replay models
# a private scratchpad only) and produce bit-identical results.
"${perf_dir}/bench/interconnect_sweep" --skip-cluster-curve \
    --sim-mode full --store-out "${ic_dir}/ic_full" \
    >"${ic_dir}/ic_full.out"
"${perf_dir}/bench/interconnect_sweep" --skip-cluster-curve \
    --sim-mode auto --store-out "${ic_dir}/ic_auto" \
    >"${ic_dir}/ic_auto.out"
grep -q "full-fallback" "${ic_dir}/ic_auto.out"
"${salam_query}" diff "${ic_dir}/ic_auto" "${ic_dir}/ic_full" \
    --json >"${ic_dir}/ic_diff.json"
python3 - "${ic_dir}/ic_diff.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
# 8 grid points + the direct baseline.
assert doc["paired"] == 9, f"expected 9 paired rows: {doc['paired']}"
assert doc["only_in_a"] == 0 and doc["only_in_b"] == 0, \
    "auto store did not pair with the full store"
changed = [r["point"] for r in doc["rows"] if r["changed"]]
assert not changed, \
    f"auto mode diverged from full simulation at points {changed}"
print("interconnect auto-fallback gate ok: 9 paired points, "
      "0 changed")
PYEOF

echo "== per-run outputs: fast-mode artifacts, fig16 record"
# A per-run artifact blocks the fast path: the points fall back to
# full simulation and the stats file the user asked for is written.
"${perf_dir}/bench/fig13_gemm_pareto" --fu-limits 8 --sim-mode fast \
    --stats-out "${smoke_dir}/fast_stats.json" \
    >"${smoke_dir}/fast_stats.out" 2>&1
# fig16 sends its record through the recorder into the store, and
# writes each per-run file once per scenario (the option's path +
# ".<scenario>.json").
"${perf_dir}/bench/fig16_multi_accelerator" \
    --store-out "${smoke_dir}/fig16_store" \
    --stats-out "${smoke_dir}/fig16_stats.json" \
    --trace-out "${smoke_dir}/fig16_trace.json" >/dev/null
"${salam_query}" list "${smoke_dir}/fig16_store" --kind run --json \
    >"${smoke_dir}/fig16_runs.json"
python3 - "${smoke_dir}" <<'PYEOF'
import json, os, sys
d = sys.argv[1]
stats = f"{d}/fast_stats.json"
assert os.path.exists(stats), "--sim-mode fast wrote no --stats-out file"
json.load(open(stats))
runs = json.load(open(f"{d}/fig16_runs.json"))
assert len(runs) == 1, f"fig16 store has {len(runs)} run records, not 1"
assert runs[0]["kernel"] == "fig16-contention", runs[0]
for kind in ("stats", "trace"):
    for scenario in ("private", "shared", "stream"):
        path = f"{d}/fig16_{kind}.json.{scenario}.json"
        assert os.path.exists(path), f"fig16 wrote no {path}"
        json.load(open(path))
print("per-run outputs ok: fast-mode stats JSON, one fig16 run "
      "record, fig16 stats and trace JSON for all three scenarios")
PYEOF

echo "== robustness: kill-and-resume, timeouts, retry records"
rb_dir="${smoke_dir}/robust"
mkdir -p "${rb_dir}"
# Uninterrupted baseline over the full 20-point fig13 grid.
"${perf_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
    --store-out "${rb_dir}/baseline" \
    --dump-out "${rb_dir}/baseline_dump.json" \
    >"${rb_dir}/baseline.out" 2>&1

# SIGTERM a 4-thread sweep mid-run: the pool must drain gracefully
# and exit 75 (EX_TEMPFAIL, "interrupted — resume me"). A machine
# fast enough to finish the sweep before the signal lands exits 0;
# either way the resume pass below must converge on a clean store.
"${perf_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
    --store-out "${rb_dir}/chaos" \
    --dump-out "${rb_dir}/chaos_dump.json" \
    >"${rb_dir}/chaos.out" 2>&1 &
chaos_pid=$!
sleep 0.5
kill -TERM "${chaos_pid}" 2>/dev/null || true
got=0
wait "${chaos_pid}" || got=$?
if [[ "${got}" -ne 75 && "${got}" -ne 0 ]]; then
    echo "interrupted sweep exited ${got}, expected 75 (or 0 if" \
         "it finished first)"
    cat "${rb_dir}/chaos.out"
    exit 1
fi
echo "interrupted sweep exit ${got}"

# Resume from the store until the sweep completes (bounded).
for pass in 1 2 3 4 5; do
    got=0
    "${perf_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
        --store-out "${rb_dir}/chaos" --resume "${rb_dir}/chaos" \
        --dump-out "${rb_dir}/chaos_dump.json" \
        >"${rb_dir}/resume.${pass}.out" 2>&1 || got=$?
    [[ "${got}" -eq 0 ]] && break
    if [[ "${got}" -ne 75 ]]; then
        echo "resume pass ${pass} exited ${got}"
        cat "${rb_dir}/resume.${pass}.out"
        exit 1
    fi
done
if [[ "${got}" -ne 0 ]]; then
    echo "resume did not converge after ${pass} passes"
    exit 1
fi

# The merged kill+resume store must be equivalent to the
# uninterrupted baseline: every point paired, nothing changed.
"${salam_query}" diff "${rb_dir}/baseline" "${rb_dir}/chaos" \
    --kind run --outcome ok --json >"${rb_dir}/diff.json"
python3 - "${rb_dir}/diff.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["paired"] == 20, f"expected 20 paired: {doc['paired']}"
assert doc["only_in_a"] == 0 and doc["only_in_b"] == 0, \
    f"unpaired rows: {doc['only_in_a']}/{doc['only_in_b']}"
changed = [r["point"] for r in doc["rows"] if r["changed"]]
assert not changed, f"kill/resume changed results at {changed}"
print("kill-and-resume ok: 20/20 points paired, nothing changed")
PYEOF

# Deliberately-starved deadline: every point must classify as
# "timeout" without stalling the pool or aborting the process, and
# --point-retries must leave one kind="attempt" record per attempt
# for salam-query attempts to aggregate. The deadline sits well below
# the fastest fig13 point (about 35 ms on a fast host), so no point
# can finish in time.
got=0
timeout 120 "${perf_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
    --point-timeout 0.005 --point-retries 1 \
    --store-out "${rb_dir}/timeouts" \
    --dump-out "${rb_dir}/timeout_dump.json" \
    >"${rb_dir}/timeouts.out" 2>&1 || got=$?
if [[ "${got}" -ne 0 ]]; then
    echo "timeout sweep exited ${got} (hang or abort?)"
    cat "${rb_dir}/timeouts.out"
    exit 1
fi
"${salam_query}" list "${rb_dir}/timeouts" --kind sweep_point \
    --json >"${rb_dir}/timeout_points.json"
"${salam_query}" attempts "${rb_dir}/timeouts" --json \
    >"${rb_dir}/timeout_attempts.json"
python3 - "${rb_dir}" <<'PYEOF'
import json, sys
d = sys.argv[1]
points = json.load(open(f"{d}/timeout_points.json"))
assert len(points) == 20, f"{len(points)} sweep_point records"
bad = [p["point"] for p in points if p["outcome"] != "timeout"]
assert not bad, f"points not classified timeout: {bad}"
attempts = json.load(open(f"{d}/timeout_attempts.json"))
assert len(attempts) == 40, \
    f"expected 2 attempts x 20 points, got {len(attempts)}"
print("timeout classification ok: 20 timeouts, 40 attempt records")
PYEOF

echo "== robustness: chaos harness (seeded kill/resume campaign)"
"${repo_root}/scripts/chaos_sweep.sh" --build-dir "${perf_dir}" \
    --seed 11 --kills 2

echo "== host telemetry: sweep artifacts + overhead gate"
cmake --build "${perf_dir}" -j "${jobs}" \
    --target fig13_gemm_pareto table4_simulation_time
"${perf_dir}/bench/fig13_gemm_pareto" --sweep-threads 4 \
    --host-telemetry-out "${smoke_dir}/fig13_host.json" \
    >"${smoke_dir}/fig13_host.out"
python3 - "${smoke_dir}/fig13_host.json" <<'PYEOF'
import json, sys
path = sys.argv[1]

host = json.load(open(path))["host"]
assert host["schema"] == "sweep_host_telemetry_v1", host["schema"]
assert host["threads"] == 4, host["threads"]
workers = host["workers"]
assert len(workers) == 4, f"expected 4 worker rows, got {len(workers)}"
assert sum(w["points"] for w in workers) == len(host["points"]), \
    "worker point counts do not cover every sweep point"
for key in ("effective_speedup", "serial_share", "lock_wait_share"):
    assert key in host, f"missing scaling metric '{key}'"
tel = host["telemetry"]
assert tel["phases"]["engine_schedule"]["count"] > 0, \
    "no engine events attributed"
assert tel["phases"]["memory_model"]["count"] > 0, \
    "no memory events attributed"

trace = json.load(open(path + ".trace.json"))
events = trace["traceEvents"]
worker_tracks = [
    e for e in events
    if e.get("ph") == "M" and e.get("name") == "thread_name"
    and str(e.get("args", {}).get("name", "")).startswith("worker")]
assert worker_tracks, "no per-worker host-time tracks in the trace"
host_slices = [e for e in events
               if e.get("ph") == "X" and e.get("pid") == 1]
assert len(host_slices) >= len(host["points"]), \
    "fewer host slices than sweep points"
sim_records = [e for e in events
               if e.get("ph") in ("X", "i", "C")
               and e.get("pid") == 0]
assert sim_records, "no simulated-time records beside host tracks"
print(f"host telemetry ok: speedup "
      f"{host['effective_speedup']:.2f}x, serial share "
      f"{host['serial_share']:.2f}, lock-wait share "
      f"{host['lock_wait_share']:.4f}, {len(host_slices)} host "
      f"slices, {len(sim_records)} sim records")
PYEOF

# Telemetry must be near-free: median-of-3 single-run GEMM with
# --host-telemetry within 3% of the run without it (interleaved so
# host drift hits both legs equally).
for n in 1 2 3; do
    "${perf_dir}/bench/table4_simulation_time" --gemm-only \
        --no-sweep --simrate-out "${smoke_dir}/oh_off.${n}.json" \
        >/dev/null
    "${perf_dir}/bench/table4_simulation_time" --gemm-only \
        --no-sweep --host-telemetry \
        --simrate-out "${smoke_dir}/oh_on.${n}.json" >/dev/null
done
python3 - "${smoke_dir}" <<'PYEOF'
import json, statistics, sys
d = sys.argv[1]

def median_gemm_seconds(tag):
    vals = []
    for n in (1, 2, 3):
        doc = json.load(open(f"{d}/{tag}.{n}.json"))
        gemm = [k for k in doc["kernels"] if k["kernel"] == "gemm"]
        assert gemm, f"{tag}.{n}: no gemm entry"
        vals.append(gemm[0]["wall_seconds"])
    return statistics.median(vals)

off = median_gemm_seconds("oh_off")
on = median_gemm_seconds("oh_on")
ratio = on / off
print(f"telemetry overhead: off {off*1e3:.1f} ms, "
      f"on {on*1e3:.1f} ms ({ratio:.3f}x)")
assert ratio <= 1.03, \
    f"telemetry overhead {ratio:.3f}x exceeds the 3% budget"
PYEOF

echo "== strict: -Wall -Wextra -Werror build (${strict_dir})"
cmake -S "${repo_root}" -B "${strict_dir}" \
    -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror" >/dev/null
cmake --build "${strict_dir}" -j "${jobs}"

echo "== all checks passed"
