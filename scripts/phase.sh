#!/usr/bin/env bash
# Compare where two builds of the benchmark place their hot code.
#
# A function's address modulo 64 is where it starts in a cache line. Text
# added or removed in one package moves every function linked after it,
# and that alone has moved workloads a change never runs by several per
# cent. For each hot symbol — the IFMA kernels of internal/uintmod and
# internal/ntt, and every function of internal/ring, internal/ckks, the
# root package (the plan executor) and serve — this prints its address
# mod 64 in A and in B ("-": not in that binary), then lists the symbols
# whose value differs and exits 1 if there is any, 0 if there is none.
#
#   go build -o A ./benchmark      # on the parent checkout
#   go build -o B ./benchmark      # on the change
#   scripts/phase.sh A B
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: scripts/phase.sh A B  (two go build ./benchmark binaries)" >&2
	exit 2
fi
export LC_ALL=C

hot=' [Tt] heax(/internal/(uintmod|ntt)\.[^ ]*IFMA|/internal/(ring|ckks)\.|/serve\.|\.)'

# phases prints "symbol<TAB>address mod 64" for each hot symbol of $1,
# sorted by symbol.
phases() {
	go tool nm -n "$1" | { grep -E "$hot" || true; } | while read -r addr _ sym; do
		printf '%s\t%d\n' "$sym" $((16#$addr % 64))
	done | sort -t $'\t' -u -k1,1
}

a=$(mktemp -t phase.XXXXXX)
b=$(mktemp -t phase.XXXXXX)
trap 'rm -f "$a" "$b"' EXIT
phases "$1" >"$a"
phases "$2" >"$b"

table=$(join -t $'\t' -a1 -a2 -e - -o 0,1.2,2.2 "$a" "$b")
printf 'symbol\tA\tB\n%s\n' "$table"
differ=$(printf '%s\n' "$table" | awk -F '\t' '$2 != $3')
total=$(printf '%s\n' "$table" | grep -c . || true)
if [ -z "$differ" ]; then
	echo "no difference in the phase of $total hot symbols"
	exit 0
fi
echo
echo "phase differs for $(printf '%s\n' "$differ" | grep -c .) of $total hot symbols:"
printf '%s\n' "$differ"
exit 1
