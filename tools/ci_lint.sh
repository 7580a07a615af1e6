#!/usr/bin/env sh
# CI lint gate: runs the tree-wide clouddb_lint scan (machine-readable JSON,
# NOLINT forbidden) and, when clang-format is installed, a formatting check
# over every C++ file. Exits non-zero on any lint error or formatting diff.
#
# Usage: tools/ci_lint.sh [path-to-clouddb_lint] [repo-root]
# Defaults assume an in-tree build directory named "build".
set -eu

LINT_BIN="${1:-}"
ROOT="${2:-}"

if [ -z "$ROOT" ]; then
  ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
fi
if [ -z "$LINT_BIN" ]; then
  LINT_BIN="$ROOT/build/tools/lint/clouddb_lint"
fi
if [ ! -x "$LINT_BIN" ]; then
  echo "ci_lint: linter not found at $LINT_BIN (build the tree first)" >&2
  exit 2
fi

# The tree scan runs every rule under --forbid-nolint, so merged code
# carries zero suppressions.
echo "ci_lint: clouddb_lint --root $ROOT --forbid-nolint --json"
"$LINT_BIN" --root "$ROOT" --forbid-nolint --json

# clang-format is optional in the build image; the lint gate must not fail
# on machines that do not ship it. When present, check — never rewrite.
if command -v clang-format >/dev/null 2>&1; then
  echo "ci_lint: clang-format --dry-run -Werror"
  # Same extension set clouddb_lint scans, minus lint fixtures (deliberately
  # odd formatting lives there).
  find "$ROOT/src" "$ROOT/tools" "$ROOT/bench" "$ROOT/tests" "$ROOT/examples" \
      -path '*/fixtures/*' -prune -o \
      \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -print |
    LC_ALL=C sort |
    xargs clang-format --dry-run -Werror
else
  echo "ci_lint: clang-format not installed, skipping format check"
fi

echo "ci_lint: OK"
