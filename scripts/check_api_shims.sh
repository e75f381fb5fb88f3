#!/bin/sh
# Polices the C API surface: the persistence symbols must be declared and
# implemented, and BREW_CACHE_DIR must be parsed in exactly one place.
set -eu
cd "$(dirname "$0")/.."

# Persistence C API: the declared surface is exactly
# brew_options_set_cache_dir + brew_persist_stats/brew_getpersiststats.
# Both sides must exist (header promise, shim implementation) — a symbol
# declared in brew.h but dropped from brew_c.cpp links everywhere until a
# user actually calls it.
for sym in brew_options_set_cache_dir brew_getpersiststats; do
  for f in src/core/brew.h src/core/brew_c.cpp; do
    if ! grep -qE "(^|[^_[:alnum:]])$sym[[:space:]]*\(" "$f"; then
      echo "$f is missing the persistence API symbol $sym" >&2
      exit 1
    fi
  done
done

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

echo "persistence API surface intact (set_cache_dir/getpersiststats)"
echo "BREW_CACHE_DIR parsed only in SpecManager::Options::fromEnv"
