#!/usr/bin/env bash
# Coverage gate. Runs the short test suite with a merged coverage profile
# and fails when any of:
#   - internal/obs (the observability layer, which is cheap to cover and
#     easy to silently regress) drops below its 90% floor,
#   - internal/server (the request-handling surface of segdiffd, where
#     an uncovered branch is an unhandled request shape) drops below its
#     90% floor, or
#   - module-wide coverage (benchmark/ excluded) regresses more than 2
#     points against the committed baseline in
#     scripts/coverage_baseline.txt.
# The baseline is a ratchet, not a mirror: raise it when coverage
# improves; the gate only stops silent backsliding.
#
# Usage: scripts/covergate.sh [profile-out]
set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE="${1:-coverage.out}"
OBS_FLOOR=90.0
SERVER_FLOOR=90.0
SLACK_PTS=2.0
BASELINE_FILE=scripts/coverage_baseline.txt

go test -short -count=1 -coverprofile="$PROFILE" ./... > /dev/null

# share COND: statement coverage (%) of the profile blocks matching the
# awk condition COND.
share() {
    awk "NR > 1 && $1"' { stmts += $(NF-1); if ($NF > 0) covered += $(NF-1) }
        END { if (stmts == 0) print "0.0"; else printf "%.1f", covered * 100 / stmts }' "$PROFILE"
}

# benchmark/ is covered by its served end-to-end run, not by unit tests.
total=$(share '!/^segdiff\/benchmark\//')
obs=$(share '/segdiff\/internal\/obs\//')
srv=$(share '/segdiff\/internal\/server\//')
baseline=$(cat "$BASELINE_FILE")

echo "coverage: module total ${total}% (baseline ${baseline}%, slack ${SLACK_PTS}pt)"
echo "coverage: internal/obs ${obs}% (floor ${OBS_FLOOR}%)"
echo "coverage: internal/server ${srv}% (floor ${SERVER_FLOOR}%)"

fail=0
if awk -v got="$obs" -v floor="$OBS_FLOOR" 'BEGIN { exit !(got < floor) }'; then
    echo "FAIL: internal/obs coverage ${obs}% is below the ${OBS_FLOOR}% floor" >&2
    fail=1
fi
if awk -v got="$srv" -v floor="$SERVER_FLOOR" 'BEGIN { exit !(got < floor) }'; then
    echo "FAIL: internal/server coverage ${srv}% is below the ${SERVER_FLOOR}% floor" >&2
    fail=1
fi
if awk -v got="$total" -v base="$baseline" -v slack="$SLACK_PTS" 'BEGIN { exit !(got < base - slack) }'; then
    echo "FAIL: module coverage ${total}% regressed more than ${SLACK_PTS}pt below the ${baseline}% baseline" >&2
    fail=1
fi
exit $fail
