#!/bin/sh
# Enum-valued CLI flags must fail fast with a message naming the valid
# values — never fall through to a generic "unknown option" or, worse,
# silently run with a default (the --report regression this PR fixes:
# bench harnesses forwarded "--report=csv" to benchmark::Initialize and
# produced no report at all, which CI read as success).
#
# Usage: cli_flags_test.sh NWQUERY_BIN NWQUERYD_BIN [BENCH_BIN]
# Registered by CMake with $<TARGET_FILE:...>; the bench binary is
# optional so -DNW_BUILD_BENCHMARKS=OFF configurations still pass.
set -u

NWQUERY="$1"
NWQUERYD="$2"
BENCH="${3:-}"

fails=0
tmpdir="${TMPDIR:-/tmp}/cli_flags_test.$$"
mkdir -p "$tmpdir"
trap 'rm -rf "$tmpdir"' EXIT
printf '//b\n' > "$tmpdir/q.txt"
printf '<a><b/></a>' > "$tmpdir/d.xml"

# expect_reject NAME EXPECTED_SUBSTRING CMD...
# The command must exit non-zero AND mention the expected hint on stderr.
expect_reject() {
  name="$1"; want="$2"; shift 2
  err="$tmpdir/err"
  if "$@" >/dev/null 2>"$err"; then
    echo "FAIL $name: exited 0 for an invalid flag value"
    fails=$((fails + 1))
    return
  fi
  if ! grep -q "$want" "$err"; then
    echo "FAIL $name: stderr lacks '$want':"
    sed 's/^/  | /' "$err"
    fails=$((fails + 1))
    return
  fi
  echo "ok   $name"
}

# expect_accept NAME CMD... — the happy path must still exit 0.
expect_accept() {
  name="$1"; shift
  if "$@" >/dev/null 2>&1; then
    echo "ok   $name"
  else
    echo "FAIL $name: exited non-zero for a valid invocation"
    fails=$((fails + 1))
  fi
}

# nwquery: every enum-valued flag names its valid values on a typo.
expect_reject nwquery_stats_typo "want text, json, or prom" \
  "$NWQUERY" --stats=promm "$tmpdir/q.txt" "$tmpdir/d.xml"
expect_reject nwquery_stats_empty "want text, json, or prom" \
  "$NWQUERY" --stats= "$tmpdir/q.txt" "$tmpdir/d.xml"
expect_reject nwquery_format_typo "want xml, json, or" \
  "$NWQUERY" --format=yaml "$tmpdir/q.txt" "$tmpdir/d.xml"
expect_reject nwquery_opt_typo "want none, rewrite" \
  "$NWQUERY" --opt=fast "$tmpdir/q.txt" "$tmpdir/d.xml"
expect_accept nwquery_stats_ok \
  "$NWQUERY" --stats=json "$tmpdir/q.txt" "$tmpdir/d.xml"
expect_accept nwquery_stats_prom_ok \
  "$NWQUERY" --stats=prom "$tmpdir/q.txt" "$tmpdir/d.xml"

# nwqueryd: same discipline (flag parsing precedes any socket work, so
# no daemon is actually started by the reject cases).
expect_reject nwqueryd_format_typo "want xml, json, or trace" \
  "$NWQUERYD" --socket "$tmpdir/s.sock" --queries "$tmpdir/q.txt" \
  --format=yaml
# nwqueryd always compiles every optimizer pass: --opt is not a flag.
expect_reject nwqueryd_opt_unknown "unknown option --opt" \
  "$NWQUERYD" --socket "$tmpdir/s.sock" --queries "$tmpdir/q.txt" \
  --opt=all

# bench harness: unknown --report values must not slip through to
# benchmark::Initialize (the silent-ignore bug).
if [ -n "$BENCH" ]; then
  expect_reject bench_report_typo "want --report=json" \
    "$BENCH" --report=csv
  expect_reject bench_report_bare "want --report=json" \
    "$BENCH" --report
fi

if [ "$fails" -ne 0 ]; then
  echo "cli_flags_test: $fails failure(s)"
  exit 1
fi
echo "cli_flags_test: all checks passed"
