#!/bin/sh
# Finds library code that no shipped binary reaches. Builds every example
# (brew_add_example), every bench (brew_add_bench) and perfbench's
# brewbench, from perfbench's own CMake package, with section GC in its own
# tree (build-reach/), then lists each brew::… or brew_… function of the
# libbrew_*.a archives that none of those binaries keeps:
#
#   scripts/check_reachability.sh
#
# Every listed function must match a line of scripts/reachability_allow.txt,
# and every line of that file must match a listed function, so the list
# stays true as code is deleted or gains a consumer. A line is
# `<pattern> | <reason>`: `*` in the pattern matches any run of characters,
# and the reason is `C API`, `test hook: <test>` or `debug dump`.
#
# The tree compiles at -O0: a function counts as reached when a binary
# calls it, whether or not the optimizer would inline every call. Compiler
# clones (.cold, .isra, .constprop, .part) fold into their parent; std::
# instantiations are not library functions and are ignored. Patterns match
# demangled names.
set -eu
cd "$(dirname "$0")/.."
export LC_ALL=C
tree=build-reach
allow=scripts/reachability_allow.txt
jobs=$(nproc)

configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_C_FLAGS_DEBUG="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
}

examples=$(sed -n 's/^brew_add_example(\([[:alnum:]_]*\).*/\1/p' \
  examples/CMakeLists.txt)
benches=$(sed -n 's/^brew_add_bench(\([[:alnum:]_]*\).*/\1/p' \
  bench/CMakeLists.txt)
configure . "$tree"
# shellcheck disable=SC2086  # target lists split on purpose
cmake --build "$tree" -j"$jobs" --target $examples $benches > /dev/null
configure perfbench "$tree/perfbench"
cmake --build "$tree/perfbench" -j"$jobs" --target brewbench > /dev/null

binaries="$tree/perfbench/brewbench"
for name in $examples; do binaries="$binaries $tree/examples/$name"; done
for name in $benches; do binaries="$binaries $tree/bench/$name"; done

# Mangled function names, compiler clones (name.cold, name.isra.0, …)
# folded into their parent.
functions_of() {
  nm --defined-only "$@" 2> /dev/null |
    sed -nE 's/^[[:xdigit:]]+ [TtWw] ([^.]*).*/\1/p' | sort -u
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# shellcheck disable=SC2086
functions_of $binaries > "$work/kept"
# Library functions are those in namespace brew (members, templates and
# lambdas included) and the brew_* C entry points and C++ names; std::
# instantiations over brew types mangle under std and drop out here.
functions_of "$tree"/src/*/libbrew_*.a |
  grep -E '^(_ZZ?N[KVROr]*(4brew|[0-9]+brew_)|_ZZ?[0-9]+brew_|brew_)' \
  > "$work/library"
comm -23 "$work/library" "$work/kept" | c++filt | sort -u > "$work/unreached"

awk -v allow="$allow" '
  function glob(p) {
    gsub(/[][\\.^$+?(){}|]/, "\\\\&", p)
    gsub(/\*/, ".*", p)
    return "^" p "$"
  }
  FILENAME == allow {
    if ($0 ~ /^[[:space:]]*(#|$)/) next
    split_at = index($0, " | ")
    pattern = substr($0, 1, split_at - 1)
    reason = substr($0, split_at + 3)
    if (split_at == 0 || pattern == "" ||
        reason !~ /^(C API|test hook: .+|debug dump)$/) {
      printf "%s:%d: want `<pattern> | C API|test hook: <test>|debug dump`\n",
        allow, FNR > "/dev/stderr"
      bad = 1
      next
    }
    line[n] = FNR; raw[n] = pattern; re[n++] = glob(pattern)
    next
  }
  {
    hit = 0
    for (i = 0; i < n; ++i)
      if ($0 ~ re[i]) { used[i] = 1; hit = 1 }
    if (!hit) { print "unreached, not on the allow-list: " $0; bad = 1 }
    ++unreached
  }
  END {
    for (i = 0; i < n; ++i)
      if (!used[i]) {
        printf "%s:%d: matches no unreached function: %s\n",
          allow, line[i], raw[i]
        bad = 1
      }
    printf "%d unreached functions, %d allow-list lines\n", unreached, n
    exit bad
  }
' "$allow" "$work/unreached"
