#!/usr/bin/env bash
# Regenerate the golden snapshot of the public API surface (api.txt):
# the full go doc of every public package. CI diffs a fresh generation
# against the committed file, so any change to the exported surface —
# signatures, doc comments, new or removed symbols — must be deliberate
# (rerun this script and commit the result alongside the change).
#
#   scripts/api.sh [out.txt]        # default: api.txt
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-api.txt}
{
	go doc -all heax
	echo
	go doc -all heax/circuits
	echo
	go doc -all heax/obs
	echo
	go doc -all heax/serve
	echo
	go doc -all heax/serve/durable
	echo
	go doc -all heax/arch
} >"$out"
echo "wrote $out" >&2
