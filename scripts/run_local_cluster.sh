#!/usr/bin/env bash
# run_local_cluster.sh — boot a 3-process storeserve cluster on localhost,
# smoke-test cross-coordinator SET/GET/MSET/MGET/DEL, and tear it down.
#
# Each process constructs the same 3-node ring (same topology/seed) and
# serves one node; replica traffic crosses the TCP mesh. Client commands
# are issued through *different* coordinators to prove the mesh carries
# quorum reads and writes, not just process-local state.
#
# Usage: scripts/run_local_cluster.sh [base-port]
set -euo pipefail

BASE=${1:-6400}
MESH_BASE=$((BASE + 1000))
BIN=$(mktemp -d)/storeserve
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

cd "$(dirname "$0")/.."
go build -o "$BIN" ./cmd/storeserve

peers_for() { # peers_for <self-id> -> "j=addr,..." for the other two
  local self=$1 out="" i
  for i in 0 1 2; do
    [ "$i" = "$self" ] && continue
    out="${out:+$out,}$i=127.0.0.1:$((MESH_BASE + i))"
  done
  echo "$out"
}

for i in 0 1 2; do
  "$BIN" \
    -listen "127.0.0.1:$((BASE + i))" \
    -mesh "127.0.0.1:$((MESH_BASE + i))" \
    -local "$i" \
    -peers "$(peers_for "$i")" \
    -topology single -nodes 3 -rf 3 -level QUORUM &
  PIDS+=($!)
done

cli() { # cli <node> CMD [args...]
  local node=$1
  shift
  "$BIN" -cli -addr "127.0.0.1:$((BASE + node))" "$@"
}

# Wait for all three front ends to accept commands.
for i in 0 1 2; do
  for _ in $(seq 1 50); do
    if cli "$i" PING >/dev/null 2>&1; then
      continue 2
    fi
    sleep 0.2
  done
  echo "node $i never came up" >&2
  exit 1
done

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

expect() { # expect <want> <node> CMD [args...]
  local want=$1 node=$2 got
  shift 2
  got=$(cli "$node" "$@")
  [ "$got" = "$want" ] || fail "via node $node: $* -> '$got', want '$want'"
}

# Write through one coordinator, read through the others: the value must
# cross the mesh both on the write quorum and the read quorum.
expect OK 0 SET smoke v1
expect v1 1 GET smoke
expect v1 2 GET smoke

# Overwrite from a different coordinator; last write wins everywhere.
expect OK 2 SET smoke v2
expect v2 0 GET smoke
expect v2 1 GET smoke

# Batch reads fan out across owners.
expect OK 0 SET mk1 a
expect OK 1 SET mk2 b
expect OK 2 SET mk3 c
got=$(cli 1 MGET mk1 mk2 mk3)
want=$(printf '1) a\n2) b\n3) c')
[ "$got" = "$want" ] || fail "MGET via node 1: '$got', want '$want'"

# Deletes propagate as tombstones.
expect "(integer) 1" 1 DEL smoke
expect "(nil)" 2 GET smoke

# Batched writes cross processes as one multi-item replica message per
# replica: MSET through one coordinator, MGET through another, then a
# three-key DEL whose tombstones the other two coordinators read back.
expect OK 2 MSET mk4 d mk5 e mk6 f
got=$(cli 0 MGET mk4 mk5 mk6)
want=$(printf '1) d\n2) e\n3) f')
[ "$got" = "$want" ] || fail "MGET via node 0: '$got', want '$want'"
expect "(integer) 3" 1 DEL mk4 mk5 mk6
for k in mk4 mk5 mk6; do
  expect "(nil)" 0 GET "$k"
  expect "(nil)" 2 GET "$k"
done

echo "local cluster smoke: OK (3 processes, base port $BASE)"
