#!/bin/sh
# Kill-the-leader soak lane for the runtime host (driven by ctest, see
# tools/CMakeLists.txt). Each iteration boots the replicated KV service
# fresh (a different seed every time), writes through it, kills the
# emitted leader, and requires the surviving replicas to (a) keep
# accepting writes and (b) still return the pre-kill value — wfd_serve's
# demo path exits 2 on either a wedge or a divergent read. Iterations
# alternate between 3 and 5 replicas.
#
# Failure modes caught here and not by the unit lane: rare thread
# interleavings around leader death (the service is rebuilt from scratch
# every iteration), and outright hangs — each iteration runs under a
# watchdog, and a timeout is a failure, not a skip.
#
# Usage: runtime_soak.sh /path/to/wfd_serve [iterations]
set -u

serve="${1:?usage: runtime_soak.sh /path/to/wfd_serve [iterations]}"
iters="${2:-6}"
# Generous per-iteration watchdog: failover itself is ~[omega_timeout +
# lease] ms; the rest is headroom for sanitizer builds on loaded CI.
watchdog=60

fail() {
  echo "runtime soak FAILED: $1" >&2
  exit 1
}

i=1
while [ "$i" -le "$iters" ]; do
  if [ $((i % 2)) -eq 0 ]; then
    n=5
  else
    n=3
  fi
  echo "== soak iteration $i/$iters (seed=$i n=$n)"
  timeout "$watchdog" "$serve" --n="$n" --seed="$i"
  status=$?
  [ "$status" -eq 124 ] && fail "iteration $i hung (watchdog ${watchdog}s)"
  [ "$status" -ne 0 ] && fail "iteration $i exited $status (wedge/divergence)"
  i=$((i + 1))
done

echo "runtime soak OK: $iters leader kills survived"
exit 0
