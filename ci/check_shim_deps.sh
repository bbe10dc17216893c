#!/usr/bin/env bash
# Fails when a crate's Cargo.toml depends on a `shims/*` crate that none
# of its sources reference: a dead dependency keeps a dead shim alive.
# Also fails when a `shims/*` crate is named by no manifest at all (no
# workspace crate, no other shim, not perfbench): that shim is dead.
#
#   bash ci/check_shim_deps.sh
#
# A crate's sources are its own directory plus every target its manifest
# points at with `path = "..."` (the suite crate hosts tests/ and
# examples/ that way).
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
for manifest in crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  sources=("$dir/src")
  for extra in benches tests examples; do
    [ -d "$dir/$extra" ] && sources+=("$dir/$extra")
  done
  while read -r path; do
    sources+=("$dir/$path")
  done < <(sed -n 's/^path = "\(.*\)"$/\1/p' "$manifest")
  for shim in shims/*/; do
    name=$(basename "$shim")
    grep -Eq "^$name *=" "$manifest" || continue
    ident=${name//-/_}
    if ! grep -rqE "\\b$ident(::|!)" --include='*.rs' "${sources[@]}"; then
      echo "$manifest: depends on shim '$name' but no source references it" >&2
      status=1
    fi
  done
done
for shim in shims/*/; do
  name=$(basename "$shim")
  users=()
  for manifest in crates/*/Cargo.toml shims/*/Cargo.toml perfbench/Cargo.toml; do
    [ "$manifest" = "${shim}Cargo.toml" ] || users+=("$manifest")
  done
  if ! grep -qE "^$name *=" "${users[@]}"; then
    echo "shims/$name: no manifest depends on this shim" >&2
    status=1
  fi
done
exit "$status"
