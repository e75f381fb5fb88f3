#!/bin/sh
# Polices the C API surface: every brew_* function declared in brew.h is
# defined in brew_c.cpp and the reverse, the environment table in brew.h's
# brew_options comment and README's environment fallbacks name exactly the
# variables SpecManager::Options::fromEnv parses, every switch in
# docs/OBSERVABILITY.md's table is read under src/, and BREW_CACHE_DIR is
# parsed in exactly one place.
set -eu
cd "$(dirname "$0")/.."

# A function declared in brew.h but dropped from brew_c.cpp links
# everywhere until a user actually calls it; one defined but not declared
# is surface no header offers. A function's name is the brew_* name right
# before the first "(" of an unindented line that is neither a comment nor
# a preprocessor line: a declaration in the header, a definition in the
# shim (calls sit indented in bodies).
functions() {
  sed -nE 's/^[^[:space:]#/][^(]*[^_[:alnum:]](brew_[[:alnum:]_]+)[[:space:]]*\(.*/\1/p' \
    "$1" | sort -u
}
declared=$(functions src/core/brew.h)
defined=$(functions src/core/brew_c.cpp)
if [ -z "$declared" ]; then
  echo "no brew_* function declarations found in src/core/brew.h" >&2
  exit 1
fi
missing=$(printf '%s\n' "$declared" | grep -vxF "$defined" || true)
undeclared=$(printf '%s\n' "$defined" | grep -vxF "$declared" || true)
if [ -n "$missing" ]; then
  echo "declared in src/core/brew.h, not defined in src/core/brew_c.cpp:" >&2
  echo "$missing" >&2
fi
if [ -n "$undeclared" ]; then
  echo "defined in src/core/brew_c.cpp, not declared in src/core/brew.h:" >&2
  echo "$undeclared" >&2
fi
[ -z "$missing" ] && [ -z "$undeclared" ] || exit 1

# The brew_options comment's table is the documentation of the fallbacks
# fromEnv parses: a variable dropped from the parser but kept in the table
# (or the reverse) is a knob that silently does nothing, or one no user
# hears of.
documented=$(sed -n '/runtime configuration (brew_options)/,/typedef struct brew_options/p' \
    src/core/brew.h \
  | sed -nE 's/^ \*   (BREW_[A-Z_]+) .*/\1/p' | sort -u)
parsed=$(sed -n '/^SpecManager::Options SpecManager::Options::fromEnv()/,/^}/p' \
    src/core/spec_manager.cpp \
  | grep -oE '"BREW_[A-Z_]+"' | tr -d '"' | sort -u)
if [ -z "$documented" ] || [ -z "$parsed" ]; then
  echo "no BREW_* table in brew.h's brew_options comment or no" \
       "variables parsed in SpecManager::Options::fromEnv" >&2
  exit 1
fi
if [ "$documented" != "$parsed" ]; then
  echo "brew.h's brew_options table and SpecManager::Options::fromEnv differ:" >&2
  echo "documented only:" $(printf '%s\n' "$documented" | grep -vxF "$parsed") >&2
  echo "parsed only:" $(printf '%s\n' "$parsed" | grep -vxF "$documented") >&2
  exit 1
fi

# README's "Environment fallbacks (...)" sentence is the user-facing copy
# of the same list: a variable it still names after fromEnv dropped it is
# a switch users set to no effect.
readme=$(sed -n '/^Environment fallbacks (/,/)/p' README.md | tr '\n' ' ' \
  | sed 's/).*//' | grep -oE 'BREW_[A-Z_]+' | sort -u || true)
if [ "$readme" != "$parsed" ]; then
  echo "README's environment fallbacks and SpecManager::Options::fromEnv differ:" >&2
  echo "README only:" $(printf '%s\n' "$readme" | grep -vxF "$parsed") >&2
  echo "parsed only:" $(printf '%s\n' "$parsed" | grep -vxF "$readme") >&2
  exit 1
fi

# Every switch in docs/OBSERVABILITY.md's quick-reference table is read
# somewhere under src/, by getenv or by fromEnv's envSize wrapper over it.
switches=$(sed -nE 's/^\| `(BREW_[A-Z_]+)[^|]*\|.*/\1/p' docs/OBSERVABILITY.md \
  | sort -u)
if [ -z "$switches" ]; then
  echo "no BREW_* switch table found in docs/OBSERVABILITY.md" >&2
  exit 1
fi
unread=""
for name in $switches; do
  grep -rqE "(getenv|envSize)\(\"$name\"" src || unread="$unread $name"
done
if [ -n "$unread" ]; then
  echo "docs/OBSERVABILITY.md lists switches nothing under src/ reads:$unread" >&2
  exit 1
fi

# BREW_CACHE_DIR is parsed in exactly one place (SpecManager::Options::
# fromEnv); a second getenv would reintroduce the scattered-env-parsing
# problem brew_options exists to solve. Scripts and docs may mention the
# variable freely — only C/C++ sources are policed.
cache_env_offenders=$(grep -rln 'getenv("BREW_CACHE_DIR")' \
    src examples bench tests stencil 2>/dev/null \
  | grep -v '^src/core/spec_manager\.cpp$' \
  || true)
if [ -n "$cache_env_offenders" ]; then
  echo "BREW_CACHE_DIR parsed outside SpecManager::Options::fromEnv:" >&2
  echo "$cache_env_offenders" >&2
  echo "route cache-dir configuration through brew_options_set_cache_dir" >&2
  exit 1
fi

count=$(printf '%s\n' "$declared" | wc -l)
echo "C API surface intact: $count brew_* functions declared and defined"
echo "brew_options environment table matches fromEnv:" $parsed
echo "README environment fallbacks match fromEnv;" \
     "every docs/OBSERVABILITY.md switch is read under src/"
echo "BREW_CACHE_DIR parsed only in SpecManager::Options::fromEnv"
