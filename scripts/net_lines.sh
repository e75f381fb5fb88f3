#!/usr/bin/env bash
# Lines added, removed and net in src/, tests/, bench/ and docs/ between a
# git ref and the working tree. Untracked files (not ignored) count as
# added; binary files are skipped.
#
# Usage: scripts/net_lines.sh [base]    (base defaults to HEAD)
set -euo pipefail

base="${1:-HEAD}"
cd "$(git rev-parse --show-toplevel)"
if ! git rev-parse --verify --quiet "${base}^{commit}" >/dev/null; then
  echo "net_lines.sh: unknown git ref '${base}'" >&2
  exit 2
fi

printf '%-8s %8s %8s %8s\n' dir added removed net
total_add=0
total_del=0
for dir in src tests bench docs; do
  read -r add del < <(
    {
      git diff --numstat "$base" -- "$dir"
      git ls-files --others --exclude-standard -z -- "$dir" |
        xargs -0 -r wc -l | awk '$2 != "total" { print $1 "\t0\t" $2 }'
    } | awk '$1 != "-" { a += $1; d += $2 } END { print a + 0, d + 0 }')
  printf '%-8s %8d %8d %+8d\n' "$dir/" "$add" "$del" "$((add - del))"
  total_add=$((total_add + add))
  total_del=$((total_del + del))
done
printf '%-8s %8d %8d %+8d\n' total "$total_add" "$total_del" \
  "$((total_add - total_del))"
