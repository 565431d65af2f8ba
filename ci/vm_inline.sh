#!/bin/sh
# Structural guard for the bytecode VM's dispatch loop: fails if `vm_run`
# in the release `ccured` binary calls one of the per-op helpers out of
# line. The VM's per-step cost rests on these being inlined into the loop
# (EXPERIMENTS.md E13, "The per-op path"). Unlike the wall-clock floors,
# the verdict depends only on the code and the compiler, not on how busy
# the host is.
#
# Usage: sh ci/vm_inline.sh [BINARY]   (from the repository root; needs
#        objdump; BINARY defaults to target/release/ccured, built by
#        `cargo build --release -p ccured-cli`)
#
# Exits 1 when the binary has no `vm_run` or `vm_run` calls a listed
# helper.
set -e
bin=${1:-target/release/ccured}
[ -f "$bin" ] || { echo "vm_inline: no $bin (cargo build --release -p ccured-cli)"; exit 1; }

helpers='RegNorm::apply Interp::arith Interp::compare Interp::access_hook Memory::read_int Memory::write_int'

# The call instructions of `vm_run`'s body, one demangled target a line.
calls=$(objdump -d --no-show-raw-insn -C "$bin" | awk '
  /^[0-9a-f]+ <.*>:$/ { f = ($0 ~ /::vm_run>:$/); if (f) seen = 1; next }
  f && /call/ { print }
  END { if (!seen) print "NO_VM_RUN" }')
if printf '%s\n' "$calls" | grep -q '^NO_VM_RUN$'; then
  echo "vm_inline: $bin has no vm_run symbol"
  exit 1
fi

status=0
for h in $helpers; do
  n=$(printf '%s\n' "$calls" | grep -cE "::$h([>.+]|$)" || true)
  if [ "$n" -ne 0 ]; then
    echo "vm_inline: vm_run calls $h out of line ($n call sites)"
    status=1
  fi
done
total=$(printf '%s\n' "$calls" | grep -c . || true)
[ $status -eq 0 ] && echo "vm_inline: vm_run makes $total calls, none to: $helpers"
exit $status
