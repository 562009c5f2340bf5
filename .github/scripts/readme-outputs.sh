#!/bin/sh
# Run the README commands on one source tree and keep everything they write.
#
#   sh readme-outputs.sh SRC_DIR OUT_DIR
#
# SRC_DIR is a checkout's src/ (put first on PYTHONPATH); OUT_DIR is made
# afresh and holds one --out directory per command, given relative to it so
# the manifests do not depend on where the tree lives, plus <name>.stdout
# with the command's stdout, stderr and exit code.  Two trees' OUT_DIRs
# compare with diff -r.
set -u
src=$(cd "$1" && pwd) || exit 1
rm -rf "$2" && mkdir -p "$2" && cd "$2" || exit 1
PYTHONPATH="$src" python -c 'import giantqed; print("giantqed from", giantqed.__file__)' >&2

run() {
    name=$1
    shift
    PYTHONPATH="$src" python -m giantqed.cli "$@" --out "$name" > "$name.stdout" 2>&1
    echo "exit $?" >> "$name.stdout"
}
run simulate simulate --topology braided --eta 0.15 --phi 0.5pi \
    --state antisymmetric --engine both --t-max 8
run decay-rates decay-rates --topology braided --omega0 50 --scan 0.005:3.0:0.005
run fdd fdd --topology separate --eta 0.2 --phi 2pi --state antisymmetric --t-max 8
run bic bic --topology braided --eta 0.2 --phi 2pi
run detect detect --topology separate --eta 0.2 --phi 2pi \
    --state antisymmetric --t-max 85 --switch-at 20 --phi-after 2.5pi
run fdd-late fdd --topology braided --eta 0.2 --phi 2pi \
    --state antisymmetric --t-max 40 --nx 241 --nt 61
run decay-rates-separate decay-rates --topology separate
run simulate-separate simulate --topology separate --eta 0.3 --phi 0.7pi \
    --state symmetric --engine both --t-max 6
