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
# legs 1e4 apart and packets one unit wide: the interior is integrated at
# the run's own x step v_g*h
run fdd-wide fdd --eta 1e4 --phi 2pi --state antisymmetric --t-max 1 \
    --nx 11 --nt 5
# legs 1e6 apart: K = 5e7 steps per delay, but only the interior points
# near the legs are formed, so it runs
run fdd-eta-1e6 fdd --eta 1e6 --phi 2pi --state antisymmetric --t-max 1 \
    --nx 11 --nt 5
# legs 1e15 apart: positions near the outer legs cannot resolve the x step
# v_g*h; exit 2 naming --eta, nothing written
run fdd-eta-1e15 fdd --eta 1e15 --phi 2pi --state antisymmetric --t-max 1 \
    --nx 11 --nt 5
run decay-rates-separate decay-rates --topology separate
run simulate-separate simulate --topology separate --eta 0.3 --phi 0.7pi \
    --state symmetric --engine both --t-max 6
# low omega0: the scans that halve Newton steps and ramp steps the most
run decay-rates-omega0-5 decay-rates --topology braided --omega0 5 \
    --scan 0.005:3.0:0.005
run decay-rates-omega0-2 decay-rates --topology braided --omega0 2 \
    --scan 0.005:3.0:0.005
run decay-rates-separate-omega0-2 decay-rates --topology separate --omega0 2 \
    --scan 0.005:3.0:0.005
# the deepest ramp bisection measured: 1,162 halved steps, up to 15 a point
run decay-rates-omega0-1 decay-rates --topology braided --omega0 1 \
    --scan 0.005:3.0:0.005
# the largest halving batches: 1,582 halved ramp steps in one ramp of
# both parities' rows
run decay-rates-omega0-0.5 decay-rates --topology braided --omega0 0.5 \
    --scan 0.005:3.0:0.005
# the braided dark state past t ~ 30, where the branch sum loses its digits
run simulate-late simulate --topology braided --eta 0.2 --phi 2pi \
    --state antisymmetric --engine both --t-max 40
# the exact series alone: the one path that evaluates it without the
# integrator
run simulate-analytic simulate --topology braided --eta 0.15 --phi 0.5pi \
    --state antisymmetric --engine analytic --t-max 8
# away from gamma = v_g = 1: the scan's delay and the detector's lags take v_g
run decay-rates-vg decay-rates --topology braided --v-g 2
# a phase after the switch whose last lag's (2N - 1)*phi_after overflows:
# exit 2 naming --phi-after, nothing written
run detect-phi-after-1e308 detect --eta 1 --phi 2pi --t-max 4 --switch-at 2 \
    --phi-after 1e308 --n-points 21
# at a small eta the frequency phi_after/delay itself overflows though
# (2N - 1)*phi_after does not: exit 2 naming --phi-after, nothing written
run detect-phi-after-1e306 detect --eta 1e-3 --phi 2pi --t-max 4 \
    --switch-at 2 --phi-after 1e306 --n-points 21
run detect-gamma detect --topology separate --eta 0.2 --phi 2pi \
    --state antisymmetric --t-max 40 --switch-at 20 --phi-after 2.5pi \
    --gamma 0.7 --v-g 1.9
# eta = 0: the instantaneous limit, the integrator's closed-form path, and
# the exact series refusing it (exit 2: it needs eta > 0)
run simulate-eta0 simulate --topology braided --eta 0 \
    --state antisymmetric --t-max 5
run simulate-eta0-both simulate --topology braided --eta 0 \
    --state antisymmetric --t-max 5 --engine both
# an exact series refused (exit 3) after the integrator ran: nothing written
run simulate-refused simulate --topology braided --eta 20 --phi 0.5pi \
    --state antisymmetric --engine both --t-max 2000 --steps-per-delay 1000
# the integrator's extreme pass shapes: K = 1, one pass per step (10^4
# passes), and gamma0*delay = 250 > 200, each pass in blocked recurrences
run simulate-k1 simulate --topology separate --eta 1e-6 --phi 0 \
    --state symmetric --t-max 0.01 --steps-per-delay 1
run simulate-blocked simulate --topology separate --eta 250 --phi 0.3pi \
    --state symmetric --t-max 750 --steps-per-delay 12500
# a v_g whose largest map value or detector intensity leaves the float
# range: exit 2 naming v_g, nothing written
run fdd-tiny-vg fdd --v-g 1e-300
run detect-tiny-vg detect --v-g 1e-310
# an --x-span whose grid leaves the float range (2*span overflows): exit 2
# naming --x-span, nothing written
run fdd-huge-span fdd --x-span 1e308 --t-max 1 --nx 5 --nt 3
# a step 2e-163 whose RK4 slope weight h^2/12 underflows: exit 2 naming
# gamma, where the integrator used to lose six digits with exit 0
run simulate-gamma-1e160 simulate --gamma 1e160 --engine both
# the exact series alone at gamma = 1e300: the rate fit runs in gamma*t,
# so t^2 cannot underflow; exit 0
run simulate-analytic-gamma-1e300 simulate --gamma 1e300 --engine analytic
# the coupling table's last-lag phase 3*omega0*delay overflows: exit 2
# naming omega0 and delay, nothing written; 5e307 keeps it finite, exit 0
run simulate-omega0-1e308 simulate --omega0 1e308 --dx 1
run simulate-omega0-5e307 simulate --omega0 5e307 --dx 1
# the same rule from (eta, phi): omega0 = phi/delay overflows at eta =
# 1e-10 though (2N - 1)*phi does not: exit 2 naming phi, nothing written
run simulate-phi-1e300 simulate --eta 1e-10 --phi 1e300
# fdd's retarded drive phase omega0*t_max = 5e307*8 overflows: exit 2
# naming --omega0 and the latest time, nothing written
run fdd-omega0-5e307 fdd --omega0 5e307 --dx 1
# an --out under an existing file: exit 2 before anything is computed, and
# the file keeps its one line
echo keep > bic-out-blocker
PYTHONPATH="$src" python -m giantqed.cli bic --topology braided --eta 0.2 \
    --phi 2pi --out bic-out-blocker/sub > bic-out-under-file.stdout 2>&1
echo "exit $?" >> bic-out-under-file.stdout
