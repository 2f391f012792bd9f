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
# Both directions: every counter the engine, residency tracker and
# migrator emit must be named in the §15 counter reference, and every
# flick.* name DESIGN.md mentions must still be emitted, so neither a
# new counter nor a deleted one can leave the docs stale.
#
# Keys are the string literals at the emission sites, including the
# "? ..." / ": ..." continuation lines of a ternary key. A literal
# followed by "+ std::to_string(...)" is a stem, documented as
# flick.residency.<stem><k>. Keys bumped through protoStat/failStat also
# have a per-device flick.<key>_dev<k> split, and tenantStat keys a
# per-tenant flick.<key>_cr3#<k> split; the docs may name those forms.
site_literals() {
    grep -hE "$1" "${@:2}" |
        grep -oE '"[a-z][a-z_0-9.]*"( \+ std::to_string)?' | tr -d '"'
}
engine_sites='_stats\.(inc|set|add)\(|(tenant|proto|fail)Stat\('
engine_sites+='|^[[:space:]]*[?:] "'
emitted=$(
    {
        site_literals "$engine_sites" src/flick/runtime.cc |
            sed 's/^/flick./'
        site_literals '_stats\.(inc|set)\(' src/flick/migrator.cc \
            src/mem/residency.hh | sed 's/^/flick.residency./'
    } | sed 's/ + std::to_string$/<k>/' | sort -u
)
splits=$(
    {
        site_literals '(proto|fail)Stat\(' src/flick/runtime.cc |
            sed 's/^\(.*\)$/flick.\1_dev<k>/'
        site_literals 'tenantStat\(' src/flick/runtime.cc |
            sed 's/^\(.*\)$/flick.\1_cr3#<k>/'
    } | sort -u
)
documented=$(grep -oE 'flick\.[a-z_0-9.#<>*]*' DESIGN.md | sed 's/\.*$//' |
             sort -u)
missing=0
for key in $emitted; do
    if ! grep -qxF "$key" <<<"$documented"; then
        echo "DESIGN.md does not mention stat family $key" >&2
        missing=1
    fi
done
for name in $documented; do
    grep -qxF "$name" <<<"$emitted"$'\n'"$splits" && continue
    # A bare family prefix (flick.qos, flick.residency.*) stands for the
    # keys under it, so at least one emitted key must start with it.
    family=${name%\*}
    family=${family%.}
    grep -q "^${family//./[.]}[.]" <<<"$emitted" && continue
    echo "DESIGN.md names stat family $name, which nothing emits" >&2
    missing=1
done
if [ "$missing" -ne 0 ]; then
    echo "docs drift: sync DESIGN.md §15's counter reference with the" \
         "emission sites" >&2
    exit 1
fi
echo "flick.* stat families and DESIGN.md agree"

echo
echo "== docs drift guard: TracePoint enumerators in DESIGN.md =="
# Both directions: every milestone and instant of enum class TracePoint
# must be named, in backticks, in DESIGN.md, and every point the §10
# trace-point table lists must be an enumerator the code emits
# (referenced outside src/sim/trace.{hh,cc}).
missing=0
points=$(sed -n '/^enum class TracePoint/,/^};/p' src/sim/trace.hh |
         grep -oE '^[[:space:]]+[a-z][A-Za-z0-9]*,' | tr -d ' ,')
for point in $points; do
    if ! grep -qF "\`$point\`" DESIGN.md; then
        echo "DESIGN.md does not mention TracePoint::$point" >&2
        missing=1
    fi
done
tabled=$(awk '/^### Trace points/ { on = 1; next } /^#/ { on = 0 }
              on && /^\| `/' DESIGN.md |
         cut -d'|' -f2 | grep -oE '`[a-zA-Z0-9]+`' | tr -d '`')
for point in $tabled; do
    if ! grep -rqF --exclude=trace.hh --exclude=trace.cc \
            "TracePoint::$point" src; then
        echo "DESIGN.md's trace-point table lists $point, which the" \
             "code does not emit" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "docs drift: sync DESIGN.md §10's trace-point table with" \
         "enum class TracePoint" >&2
    exit 1
fi
echo "TracePoint enumerators and DESIGN.md agree"

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
