#!/usr/bin/env bash
# Line-count report: .ml/.mli lines per library (lib/*), bin and test, at a
# base revision and in the working tree (tracked plus untracked files not
# ignored), with the delta.
#
#   scripts/loc-report.sh [BASE_REV]      # default BASE_REV: HEAD
set -euo pipefail
base=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)"
git rev-parse --quiet --verify "$base^{commit}" >/dev/null || {
  echo "loc-report: unknown revision $base" >&2
  exit 2
}

is_source() { grep -E '\.mli?$' || true; }

# Lines of the .ml/.mli files under $1 at $base.
at_base() {
  git ls-tree -r --name-only "$base" -- "$1" | is_source |
    while read -r f; do git cat-file blob "$base:$f"; done | wc -l
}

# Lines of the .ml/.mli files under $1 in the working tree.
in_tree() {
  git ls-files --cached --others --exclude-standard -- "$1" | is_source |
    while read -r f; do [ -f "$f" ] && cat "$f"; done | wc -l
}

areas=$(
  {
    git ls-tree -d --name-only "$base" lib/
    find lib -mindepth 1 -maxdepth 1 -type d
    echo bin
    echo test
  } | sort -u
)

printf '%-18s %8s %8s %8s\n' area "$(git rev-parse --short "$base")" tree delta
tb=0 tt=0
for a in $areas; do
  b=$(at_base "$a") t=$(in_tree "$a")
  tb=$((tb + b)) tt=$((tt + t))
  printf '%-18s %8d %8d %+8d\n' "$a" "$b" "$t" $((t - b))
done
printf '%-18s %8d %8d %+8d\n' total "$tb" "$tt" $((tt - tb))
