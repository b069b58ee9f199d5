#!/usr/bin/env bash
# Fuzz smoke: every fuzz target of the module, found per package with
# `go test -list '^Fuzz'`, fuzzed for FUZZTIME each (default 10s). Two
# targets get 20 s: FuzzProfileIndex (the only pin of the derived profile
# index) and FuzzBoundedVsReference (the bounded Zhang–Shasha against the
# recursive reference). A new fuzz target is picked up without editing
# this script or CI. Run from the repository root; exits non-zero on the
# first failing target.
set -euo pipefail

fuzztime="${FUZZTIME:-10s}"
declare -A long=([FuzzProfileIndex]=20s [FuzzBoundedVsReference]=20s)

# go test prints each package's listed names, then its "ok <package>" line.
list="$(go test -list '^Fuzz' ./...)"
targets=()
names=()
while read -r first second _; do
  case "$first" in
  Fuzz*) names+=("$first") ;;
  ok)
    for n in "${names[@]}"; do
      targets+=("$second $n")
    done
    names=()
    ;;
  esac
done <<<"$list"
if [ "${#targets[@]}" -eq 0 ]; then
  echo "FAIL: no fuzz targets found" >&2
  exit 1
fi

echo "fuzzing ${#targets[@]} targets"
for t in "${targets[@]}"; do
  read -r pkg name <<<"$t"
  d="${long[$name]:-$fuzztime}"
  echo "== $pkg $name ($d)"
  go test -run='^$' -fuzz="^${name}\$" -fuzztime="$d" "$pkg"
done
