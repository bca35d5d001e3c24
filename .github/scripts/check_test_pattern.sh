#!/usr/bin/env bash
# Fails when an alternative of a ctest -R pattern matches no test in the
# build tree, so a renamed or deleted suite cannot silently drop out of
# a CI job's coverage.
#
#   check_test_pattern.sh BUILD_DIR 'Alpha|Beta|Gamma'
set -euo pipefail
build_dir=$1
IFS='|' read -ra alternatives <<< "$2"
status=0
for alt in "${alternatives[@]}"; do
  count=$(ctest --test-dir "$build_dir" -N -R "$alt" |
          sed -n 's/^Total Tests: //p')
  if [ "${count:-0}" -eq 0 ]; then
    echo "ctest -R alternative '$alt' matches no test"
    status=1
  else
    echo "$alt: $count"
  fi
done
exit $status
