#!/usr/bin/env bash
# Run a fixed set of small CLI commands against the mcrecon sources in
# SRC_DIR and write the SHA-256 of every output file to OUT_DIR/hashes.txt.
# Running it on two checkouts and diffing the two hashes.txt files shows
# whether a change keeps every CLI output byte-identical. It covers all five
# mask schemes at R=4 and R=1, every denoiser name, zero-filled, --config,
# --estimate-sens, --mode dynamic with and without --T/--inner, --jobs 1
# and 2, evaluate, and the exit codes of four rejected inputs.
#
# Usage: bash scripts/golden_hashes.sh SRC_DIR OUT_DIR   (OUT_DIR empty or absent)
set -euo pipefail
SRC=$(cd "$1" && pwd); OUT=$2
if [ -n "$(ls -A "$OUT" 2>/dev/null)" ]; then echo "error: $OUT is not empty" >&2; exit 2; fi
mkdir -p "$OUT"; cd "$OUT"
export PYTHONPATH=$SRC
M="python3 -m mcrecon.cli"
for s in equispaced random-rectilinear gaussian2d pseudo-radial pseudo-spiral; do
  $M mask --scheme $s --size 48x48 --accel 4 --acs 8 --acs-radius 3 --seed 5 --out m_$s.cks >/dev/null
  $M mask --scheme $s --size 48x48 --accel 1 --acs 8 --acs-radius 3 --seed 5 --out m1_$s.cks >/dev/null
done
$M mask --scheme random-rectilinear --size 40x56 --accel 3.3 --acs 6 --seed 9 --out mr.cks >/dev/null
$M simulate --size 48 --coils 4 --seed 3 --mask m_equispaced.cks --out-prefix s >/dev/null
$M simulate --size 48 --coils 4 --seed 4 --mask m_gaussian2d.cks --out-prefix g >/dev/null
$M simulate --size 48 --frames 7 --coils 4 --seed 6 --mask m_equispaced.cks --out-prefix d >/dev/null
mkdir -p a; cp s_kspace_masked.cks a/v1.cks
$M simulate --size 48 --coils 4 --seed 8 --mask m_equispaced.cks --out-prefix s8 >/dev/null
cp s8_kspace_masked.cks a/v3.cks
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --method zero-filled --out-prefix r_zf >/dev/null
for d in identity l1 l1-soft-threshold tikhonov tikhonov-smooth tv tv-chambolle; do
  st=1e-3; [ $d = identity ] && st=0
  $M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --denoiser $d --strength $st --lam 0.1 --out-prefix r_$d >/dev/null
done
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --T 3 --inner 5 --step 0.5 --out-prefix r_explicit >/dev/null
$M reconstruct --kspace g_kspace_masked.cks --mask m_gaussian2d.cks --sens g_sens.cks --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_gauss >/dev/null
$M reconstruct --kspace g_kspace_masked.cks --mask m_gaussian2d.cks --estimate-sens --denoiser l1 --strength 1e-3 --lam 0.1 --out-prefix r_gest >/dev/null
$M reconstruct --kspace g_kspace_full.cks --mask m1_pseudo-radial.cks --sens g_sens.cks --T 4 --out-prefix r_full >/dev/null
$M reconstruct --kspace d_kspace_masked.cks --mask m_equispaced.cks --sens d_sens.cks --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_dyn >/dev/null
$M reconstruct --kspace d_kspace_masked.cks --mask m_equispaced.cks --estimate-sens --mode dynamic --T 3 --out-prefix r_dynT >/dev/null
$M reconstruct --kspace d_kspace_masked.cks --mask m_equispaced.cks --sens d_sens.cks --mode dynamic --inner 2 --out-prefix r_dynI >/dev/null
$M reconstruct --kspace a/v1.cks a/v3.cks --mask m_equispaced.cks --sens s_sens.cks --jobs 1 --out-prefix j1 >/dev/null
$M reconstruct --kspace a/v1.cks a/v3.cks --mask m_equispaced.cks --sens s_sens.cks --jobs 2 --out-prefix j2 >/dev/null
printf 'denoiser=tv\nstrength=1e-3\nlam=0.1\nT=5\n' > rc.conf
$M reconstruct --config rc.conf --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --inner 3 --out-prefix r_conf >/dev/null
$M evaluate --truth s_truth.cks --pred r_tv.cks --kspace-truth s_kspace_full.cks --kspace-pred s_kspace_full.cks --out e_static.csv >/dev/null
$M evaluate --truth d_truth.cks --pred r_dyn.cks --kspace-truth d_kspace_full.cks --kspace-pred d_kspace_full.cks --normalize frame --out e_dyn.csv >/dev/null
$M evaluate --truth s_truth.cks --pred r_zf.cks --out e_zf.csv >/dev/null
# error exits must stay the same too
set +e
$M mask --scheme bogus --size 8x8 --accel 2 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_bogus=$?" > rcs.txt
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --denoiser wavelet --out-prefix x >/dev/null 2>&1; echo "rc_den=$?" >> rcs.txt
$M mask --scheme gaussian2d --size 16x16 --accel 8 --acs-radius 6 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_budget=$?" >> rcs.txt
$M mask --scheme equispaced --size 16x16 --accel 0.5 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_acc=$?" >> rcs.txt
set -e
find . -type f ! -name hashes.txt | sort | xargs sha256sum > hashes.txt
wc -l hashes.txt
