#!/usr/bin/env bash
# Full verification sweep: docs-drift guards keeping DESIGN.md's
# configuration table, counter reference and trace-point table in sync
# with the code, the full test suite in the default build, the
# repository benchmark's self-test, the Table III breakdown's
# exact-attribution gate, the interpreter bench's >= 5x speedup gate,
# the other benches' smoke gates, and
# the whole test suite again in a Debug ASan+UBSan build with leak
# checking on (lifetime bugs in the event-driven engine's continuation
# chains, leaks of still-pending events, and undefined behaviour in the
# interpreters and assemblers).
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

echo "== docs drift guard: SystemConfig fluent options in DESIGN.md =="
# Both directions: every with* option src/flick/system.hh declares
# (SystemConfig and CallSpec alike) must be named in DESIGN.md, and every
# with* name DESIGN.md mentions must still be declared there, so neither
# a new option nor a deleted one can leave the docs stale.
declared=$(grep -oE 'with[A-Z][A-Za-z0-9]*' src/flick/system.hh | sort -u)
missing=0
for opt in $declared; do
    if ! grep -q "$opt" DESIGN.md; then
        echo "DESIGN.md does not mention SystemConfig::$opt" >&2
        missing=1
    fi
done
for opt in $(grep -oE 'with[A-Z][A-Za-z0-9]*' DESIGN.md | sort -u); do
    if ! grep -qxF "$opt" <<<"$declared"; then
        echo "DESIGN.md names option $opt, which src/flick/system.hh" \
             "does not declare" >&2
        missing=1
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "docs drift: sync DESIGN.md with the options above" >&2
    exit 1
fi
echo "SystemConfig::with* options and DESIGN.md agree"

echo
echo "== docs drift guard: flick.* stat families in DESIGN.md =="
# Both directions: every counter the engine emits must be named in the
# §15 counter reference, and every flick.* name DESIGN.md mentions must
# still be emitted, so neither a new counter nor a deleted one can leave
# the docs stale.
#
# Keys are the string literals at two kinds of site. Cold paths bump a
# literal on _stats in runtime.cc, including the "? ..." / ": ..."
# continuation lines of a ternary key. Hot paths bump a handle registered
# once in runtime.hh ("Counter _x{_stats, "key"};"); a DeviceStat
# registration also has a per-device flick.<key>_dev<k> split and a
# TenantStat one a per-tenant flick.<key>_cr3#<k> split, and the docs may
# name those forms.
site_literals() {
    grep -hE "$1" "${@:2}" | grep -oE '"[a-z][a-z_0-9.]*"' | tr -d '"'
}
registered() {
    site_literals "^[[:space:]]*($1) _[A-Za-z0-9]+\{_stats, \"" \
        src/flick/runtime.hh
}
engine_sites='_stats\.(inc|set|add)\(|^[[:space:]]*[?:] "'
emitted=$(
    {
        site_literals "$engine_sites" src/flick/runtime.cc
        registered 'Counter|DeviceStat|TenantStat'
    } | sed 's/^/flick./' | sort -u
)
splits=$(
    {
        registered DeviceStat | sed 's/^\(.*\)$/flick.\1_dev<k>/'
        registered TenantStat | sed 's/^\(.*\)$/flick.\1_cr3#<k>/'
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
    # A bare family prefix (flick.qos, flick.placement.*) stands for the
    # keys under it, so at least one emitted key must start with it.
    family=${name%\*}
    family=${family%.}
    grep -q "^${family//./[.]}[.]" <<<"$emitted" && continue
    echo "DESIGN.md names stat family $name, which nothing emits" >&2
    missing=1
done
if [ "$missing" -ne 0 ]; then
    echo "docs drift: sync DESIGN.md §15's counter reference with the" \
         "emission and registration sites" >&2
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
echo "== repository benchmark self-test (traced and untraced runs agree) =="
python3 perfbench/selftest.py

echo
echo "== Table III breakdown (fails unless phase sums equal end-to-end) =="
./build/bench/bench_table3_breakdown

echo
echo "== interp bench (cached vs reference identity, >= 5x speedup) =="
./build/bench/bench_interp

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
# The test executables plus flick_run, protocol_trace and every bench a
# ctest entry runs (flag rejections, golden outputs); the entry's name
# starts with the bench's. The other benches are not needed here.
test_targets=$(grep -oE '^flick_test\([a-z_0-9]+' tests/CMakeLists.txt |
               cut -d'(' -f2)
bench_targets=$(ctest --test-dir build-asan -N |
                grep -oE ': bench_[a-z_0-9]+\.' | tr -d ':. ' | sort -u)
cmake --build build-asan -j "$jobs" --target $test_targets $bench_targets \
    flick_run protocol_trace
ASAN_OPTIONS=detect_leaks=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo
echo "all checks passed"
