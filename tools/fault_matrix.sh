#!/bin/sh
# Fault-injection matrix lane for wfd_check (driven by ctest, see
# tools/CMakeLists.txt). Runs every injection mode against every core
# problem at small n under a state budget:
#
#     {crash-explore, per-query FD under explored crashes, lossy-link}
#   x {consensus, qc, nbac, register}
#
# Claims checked per cell:
#
#  1. No run may report a violation (exit 3) or an option error (exit
#     1/2): every protocol here is correct, so any counterexample under
#     injected faults is a checker or wrapper bug. Exits 0 (exhausted
#     within budget) and 4 (budget reached, frontier saved) are both
#     graceful degradation.
#  2. A budget-capped cell must leave a resumable snapshot behind
#     (--save-state), so the matrix composes with the resume lane.
#  3. The crash and loss cells must actually exercise the adversary:
#     their --json reports must count injected faults.
#
# Plus one watchdog claim: a tree far too large for its deadline must
# come back as exit 4 with a partial JSON report (status "deadline"),
# not hang the lane.
#
# The script is plain POSIX sh and makes no timing assumptions beyond
# the deadline watchdog itself, so it runs unchanged under the
# asan/ubsan/tsan presets (slower builds just spend more of the budget).
#
# Usage: fault_matrix.sh /path/to/wfd_check
set -u

CHECK=${1:?usage: fault_matrix.sh /path/to/wfd_check}
DIR=$(mktemp -d) || exit 1
trap 'rm -rf "$DIR"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

jstr() {
  printf '%s' "$1" | sed -n "s/.*\"$2\":\"\([^\"]*\)\".*/\1/p"
}
jnum() {
  printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\)[,}].*/\1/p"
}

# Per-problem base arguments. Small n, shallow horizons and static
# detector histories where the problem allows it — the matrix probes
# fault handling, not tree size.
args_for() {
  case $1 in
  consensus) echo "--problem=consensus --n=3 --fd=static --depth=16" ;;
  qc) echo "--problem=qc --n=3 --depth=14" ;;
  nbac) echo "--problem=nbac --n=3 --fd=static --depth=14" ;;
  register) echo "--problem=register --n=3 --fd=static --reg-ops=1 \
                  --reg-readers=1 --depth=16" ;;
  *) fail "unknown problem $1" ;;
  esac
}

# One matrix cell: run with a budget and a snapshot, accept only clean
# outcomes, echo the JSON for mode-specific assertions.
cell() {
  prob=$1
  mode=$2
  shift 2
  snap="$DIR/$prob-$mode.wfds"
  out=$("$CHECK" $(args_for "$prob") "$@" --exhaustive --json \
    --budget-states=4000 --save-state="$snap") || rc=$?
  rc=${rc:-0}
  case $rc in
  0) ;;
  4)
    [ -f "$snap" ] || fail "$prob/$mode: budget exit without a snapshot"
    ;;
  *) fail "$prob/$mode: exit $rc: $out" ;;
  esac
  verdict=$(jstr "$out" verdict)
  [ "$verdict" = "clean" ] || fail "$prob/$mode: verdict $verdict"
  CELL_OUT=$out
  rc=
}

for prob in consensus qc nbac register; do
  # --- crash-explore: crash timing as a schedule choice ---------------
  cell "$prob" crash --crash=explore
  crashes=$(jnum "$CELL_OUT" injected_crashes)
  [ -n "$crashes" ] && [ "$crashes" -gt 0 ] ||
    fail "$prob/crash: no crashes injected ($crashes)"

  # --- per-query FD: any output legal for the evolving pattern --------
  # (overrides the per-problem --fd=static; --crash=explore makes the
  # oracle track the pattern the injected crashes reconstruct).
  cell "$prob" fd --fd=flap --crash=explore

  # --- lossy links: drop budget 1 per directed link -------------------
  # The drops>0 assertion is skipped for qc: its Psi-based module is
  # message-free (the algorithm runs against detector output alone), so
  # there is never an in-flight message to drop — the cell still proves
  # the option is accepted and nothing breaks.
  cell "$prob" loss --loss=drop:1
  if [ "$prob" != qc ]; then
    drops=$(jnum "$CELL_OUT" injected_drops)
    [ -n "$drops" ] && [ "$drops" -gt 0 ] ||
      fail "$prob/loss: no drops injected ($drops)"
  fi
  echo "matrix: $prob OK"
done

# --- deadline watchdog: a hung exhaustive run degrades to exit 4 ------
out=$("$CHECK" --problem=consensus --n=3 --crash=explore --exhaustive \
  --json --deadline-ms=300) || rc=$?
rc=${rc:-0}
[ "$rc" -eq 4 ] || fail "deadline run exited $rc, want 4"
status=$(jstr "$out" status)
[ "$status" = "deadline" ] || fail "deadline run reported status $status"
states=$(jnum "$out" states)
[ -n "$states" ] && [ "$states" -gt 0 ] ||
  fail "deadline run reported no partial progress"

echo "fault matrix OK"
