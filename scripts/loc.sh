#!/usr/bin/env bash
# Prints the repo's Go line counts the way ROADMAP re-anchors quote
# them: non-test Go outside bench/ (raw, and without blank and
# comment-only lines), test Go outside bench/, bench/, and the non-test
# total per package directory. Block comments are counted as code; the
# repo's comments are // lines.
#
# Usage: scripts/loc.sh [dir]     (default: the repo this script is in)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

files() { # files <test|code>: Go files outside bench/, NUL-separated
  if [ "$1" = test ]; then
    find . -name '*_test.go' -not -path './bench/*' -print0
  else
    find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0
  fi
}
raw() { xargs -0 cat | wc -l; }
code() { xargs -0 cat | grep -cvE '^[[:space:]]*(//.*)?$'; }

printf '%-28s %7d\n' 'non-test Go, raw' "$(files code | raw)"
printf '%-28s %7d\n' 'non-test Go, code only' "$(files code | code)"
printf '%-28s %7d\n' 'test Go, raw' "$(files test | raw)"
printf '%-28s %7d\n' 'bench/ Go, raw' "$(find bench -name '*.go' -print0 | raw)"
echo
echo 'non-test Go per package (raw / code only):'
files code | xargs -0 -n1 dirname | sort -u | while read -r d; do
  printf '  %-32s %6d %6d\n' "${d#./}" \
    "$(find "$d" -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0 | raw)" \
    "$(find "$d" -maxdepth 1 -name '*.go' -not -name '*_test.go' -print0 | code)"
done
