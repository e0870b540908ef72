#!/usr/bin/env bash
# Proves the output checks can fail: each workload runs for one second
# with one expected answer corrupted (--corrupt-oracle) and must exit
# non-zero with "correct": false. Run from the repository root:
#
#   bash perfbench/selftest.sh
set -uo pipefail

status=0
for w in read-hot read-cold execute-fresh write-mix; do
	out=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 --corrupt-oracle 2>/dev/null)
	rc=$?
	last=$(printf '%s\n' "$out" | tail -n 1)
	if [[ $rc -ne 0 && $last == *'"correct":false'* ]]; then
		echo "selftest $w: ok (exit $rc, correct false)"
	else
		echo "selftest $w: FAILED (exit $rc): $last"
		status=1
	fi
done
exit $status
