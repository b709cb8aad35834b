#!/usr/bin/env sh
# Validates cross-references in the repository's markdown documentation:
#
#   1. every relative markdown link target `[text](path)` in README.md,
#      EXPERIMENTS.md and docs/*.md resolves to an existing file (external
#      http(s) links and pure #anchors are skipped);
#   2. every file or directory path named in backticks that looks like a
#      repo path (src/..., docs/..., tests/..., tools/..., bench/...,
#      bench_mtl/..., examples/..., or a top-level *.md, *.json or *.txt)
#      actually exists.
#
# Exits non-zero listing every broken reference. Wired into the build as
# the `check_docs` target (cmake --build build --target check_docs).
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
status=0

docs_files="$repo_root/README.md $repo_root/EXPERIMENTS.md"
for f in "$repo_root"/docs/*.md; do
  [ -e "$f" ] && docs_files="$docs_files $f"
done

for f in $docs_files; do
  rel_f=${f#"$repo_root/"}
  dir=$(dirname "$f")

  # 1. Relative markdown link targets.
  targets=$(grep -o '](\([^)#][^)]*\))' "$f" 2>/dev/null \
    | sed 's/^](//; s/)$//' \
    | grep -v '^[a-z+]*://' || true)
  for t in $targets; do
    if [ ! -e "$dir/$t" ] && [ ! -e "$repo_root/$t" ]; then
      echo "BROKEN LINK  $rel_f -> $t"
      status=1
    fi
  done

  # 2. Backticked repo paths.
  paths=$(grep -o '`[A-Za-z0-9_./-]*`' "$f" 2>/dev/null \
    | sed 's/^`//; s/`$//' \
    | grep -E '^(src|docs|tests|tools|bench|bench_mtl|examples)/[A-Za-z0-9_./-]+$|^[A-Za-z0-9_-]+\.(md|json|txt)$' \
    | grep -v '\.\.' | sort -u || true)
  for p in $paths; do
    # Paths under build output or with shell globs are not checkable.
    case $p in
      *\**) continue ;;
    esac
    if [ ! -e "$repo_root/$p" ]; then
      echo "BROKEN PATH  $rel_f -> $p"
      status=1
    fi
  done
done

if [ $status -eq 0 ]; then
  echo "OK: all documentation cross-references resolve"
fi
exit $status
