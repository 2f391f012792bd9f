#!/usr/bin/env bash
# Full verification sweep: docs-drift guards keeping DESIGN.md's
# configuration table, counter reference and trace-point table in sync
# with the code, the full test suite in the default build, the Table III
# breakdown's exact-attribution gate, the benches' smoke gates, and
# the whole test suite again in a Debug ASan+UBSan build with leak
# checking on (lifetime bugs in the event-driven engine's continuation
# chains, leaks of still-pending events, and undefined behaviour in the
# interpreters and assemblers).
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

echo "== docs drift guard: SystemConfig fluent options in DESIGN.md =="
missing=0
for opt in $(grep -oE 'SystemConfig &[[:space:]]*$|with[A-Z][A-Za-z0-9]*' \
                 src/flick/system.hh | grep -oE 'with[A-Z][A-Za-z0-9]*' |
                 sort -u); do
    if ! grep -q "$opt" DESIGN.md; then
        echo "DESIGN.md does not mention SystemConfig::$opt" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "docs drift: document the options above in DESIGN.md" >&2
    exit 1
fi
echo "all SystemConfig::with* options documented"

echo
echo "== docs drift guard: flick.* stat families in DESIGN.md =="
# Every counter family the engine, residency tracker and migrator emit
# must appear (as flick.<family> / flick.residency.<family>) in the
# §15 counter reference. Literal key prefixes are extracted from the
# stat-emission sites; dynamic suffixes (_dev%u, _cr3#<k>, ...) reduce
# to their literal stem, which the reference spells as e.g.
# flick.host_to_nxp_calls_dev<k>.
missing=0
engine_keys=$(grep -hE '_stats\.(inc|set|add)\(|tenantStat\(|protoStat\(|^[[:space:]]*: "' \
                  src/flick/runtime.cc src/spec/speculation.cc |
              grep -oE '"[a-z][a-z_0-9.]*' | tr -d '"' | sort -u)
residency_keys=$(grep -hE '_stats\.(inc|set)\(' src/flick/migrator.cc \
                     src/mem/residency.hh |
                 grep -oE '"[a-z][a-z_0-9.]*' | tr -d '"' | sort -u)
for key in $engine_keys; do
    if ! grep -qF "flick.$key" DESIGN.md; then
        echo "DESIGN.md does not mention stat family flick.$key" >&2
        missing=1
    fi
done
for key in $residency_keys; do
    if ! grep -qF "flick.residency.$key" DESIGN.md; then
        echo "DESIGN.md does not mention stat family flick.residency.$key" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "docs drift: add the families above to DESIGN.md §15" >&2
    exit 1
fi
echo "all flick.* stat families documented"

echo
echo "== docs drift guard: TracePoint enumerators in DESIGN.md =="
# Every milestone and instant of enum class TracePoint must be named, in
# backticks, in DESIGN.md (the §10 trace-point table).
missing=0
points=$(sed -n '/^enum class TracePoint/,/^};/p' src/sim/trace.hh |
         grep -oE '^[[:space:]]+[a-z][A-Za-z0-9]*,' | tr -d ' ,')
for point in $points; do
    if ! grep -qF "\`$point\`" DESIGN.md; then
        echo "DESIGN.md does not mention TracePoint::$point" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "docs drift: add the trace points above to DESIGN.md §10" >&2
    exit 1
fi
echo "all TracePoint enumerators documented"

echo
echo "== release build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo
echo "== Table III breakdown (fails unless phase sums equal end-to-end) =="
./build/bench/bench_table3_breakdown

echo
echo "== interp bench, smoke mode (cached vs reference identity) =="
./build/bench/bench_interp --smoke

echo
echo "== placement bench, smoke mode =="
./build/bench/bench_placement --smoke

echo
echo "== placement bench, 8-device fabric smoke =="
./build/bench/bench_placement --devices=8 --smoke

echo
echo "== placement bench, sharded residency study smoke =="
./build/bench/bench_placement --workload=sharded --smoke

echo
echo "== SLO bench, smoke mode (overload-survival gates) =="
./build/bench/bench_slo --smoke

echo
echo "== speculation bench, smoke mode (break-even storm gates) =="
./build/bench/bench_speculation --smoke

echo
echo "== debug + asan/ubsan build, full test suite with leak checking =="
cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug -DFLICK_SANITIZE=address,undefined >/dev/null
# The test executables plus flick_run and protocol_trace, whose ctest
# entries are part of the suite; the benches are not needed here.
test_targets=$(grep -oE '^flick_test\([a-z_0-9]+' tests/CMakeLists.txt |
               cut -d'(' -f2)
cmake --build build-asan -j "$jobs" --target $test_targets flick_run \
    protocol_trace
ASAN_OPTIONS=detect_leaks=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo
echo "all checks passed"
