#!/bin/sh
# Runs one command on both execution engines and checks that they agree.
#
# Usage: sh ci/both_engines.sh COMMAND [ARG...]
#
# Appends `--engine vm`, then `--engine tree`, to COMMAND and prints the
# vm run's output. Exits 1 unless the two outputs are identical once the
# engine's name is masked: the tree engine is the reference the VM is
# checked against. A run that fails stops the script with its exit code.
set -e
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
"$@" --engine vm > "$d/vm"
"$@" --engine tree > "$d/tree"
cat "$d/vm"
for e in vm tree; do
    sed -E 's/engine=(vm|tree)/engine=E/; s/"engine":"(vm|tree)"/"engine":"E"/' "$d/$e" > "$d/$e.masked"
done
if ! diff "$d/vm.masked" "$d/tree.masked"; then
    echo "$*: the vm and tree engines disagree" >&2
    exit 1
fi
