#!/usr/bin/env bash
# Fails when an alternative of a ctest -R pattern matches no test in the
# build tree, so a renamed or deleted suite cannot silently drop out of
# a CI job's coverage.
#
# Given a job's build targets as well, it also fails when an alternative
# matches a test whose executable is not one of them: a job that builds
# only those targets would never run that test. Run it so on a tree where
# every test target is built, or an unbuilt test cannot be seen.
#
#   check_test_pattern.sh BUILD_DIR 'Alpha|Beta|Gamma' ['target_a target_b']
set -euo pipefail
build_dir=$1
IFS='|' read -ra alternatives <<< "$2"
targets=${3:-}
status=0
for alt in "${alternatives[@]}"; do
  count=$(ctest --test-dir "$build_dir" -N -R "$alt" |
          sed -n 's/^Total Tests: //p')
  if [ "${count:-0}" -eq 0 ]; then
    echo "ctest -R alternative '$alt' matches no test"
    status=1
    continue
  fi
  echo "$alt: $count"
  [ -n "$targets" ] || continue
  # Every matched test's executable, by file name, that is not a target.
  unbuilt=$(ctest --test-dir "$build_dir" -N -R "$alt" --show-only=json-v1 |
            python3 -c '
import json, os, sys
targets = set(sys.argv[1].split())
for test in json.load(sys.stdin)["tests"]:
    exe = os.path.basename(test["command"][0])
    if exe not in targets:
        print("  %s (%s)" % (test["name"], exe))
' "$targets")
  if [ -n "$unbuilt" ]; then
    echo "ctest -R alternative '$alt' matches tests of targets not built:"
    echo "$unbuilt"
    status=1
  fi
done
exit $status
