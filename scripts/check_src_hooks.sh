#!/usr/bin/env bash
# Fails if src/ carries a test hook or a process-wide mode switch.
#
# The library keeps one production path per operation; reference pipelines
# and A/B variants live in tests/ (tests/oracles) or bench/, never behind a
# global flag in src/.  Three shapes give such a switch away:
#   * a `namespace testing` (test-only entry points in a library header);
#   * a `...ForTest(` function;
#   * a namespace-scope `std::atomic<bool>` (a process-wide flag).  A
#     function-local static, such as the observability on/off flag behind
#     obs::enabled(), is indented and does not match.
#
# Usage: scripts/check_src_hooks.sh [SRC_DIR]   (default: src)
set -euo pipefail
cd "$(dirname "$0")/.."
SRC="${1:-src}"

status=0
check() {
  local what="$1" pattern="$2"
  local hits
  hits=$(grep -rnE --include='*.h' --include='*.cc' --include='*.cpp' \
           "$pattern" "$SRC" || true)
  if [[ -n "$hits" ]]; then
    echo "check_src_hooks: $what in $SRC/:" >&2
    echo "$hits" >&2
    status=1
  fi
}

check "test-only namespace" '\bnamespace[[:space:]]+testing\b'
check "test hook" 'ForTest[[:space:]]*\('
check "namespace-scope std::atomic<bool>" \
  '^((static|inline|thread_local|constinit|extern)[[:space:]]+)*std::atomic<bool>[[:space:]]+[A-Za-z_]'

if [[ $status -eq 0 ]]; then
  echo "check_src_hooks: $SRC/ OK"
fi
exit $status
