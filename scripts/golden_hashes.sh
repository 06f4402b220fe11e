#!/usr/bin/env bash
# Run a fixed set of small CLI commands against the mcrecon sources in
# SRC_DIR and write the SHA-256 of every output file to OUT_DIR/hashes.txt.
# Running it on two checkouts and diffing the two hashes.txt files shows
# whether a change keeps every CLI output byte-identical. It covers all five
# mask schemes at R=4 and R=1, a 64x64 R=8 pseudo-radial mask (many more
# spokes than 48x48 R=4), every denoiser name, zero-filled, --config,
# --estimate-sens, --mode dynamic with and without --T/--inner, a dynamic
# TV solve with --estimate-sens on a random-rectilinear mask, one with
# --sens at 6 frames (fourier.GRAM_MIN_FRAMES, the fewest that take the row
# Gram path; the 7-frame dynamic solves take it too), a 3-frame dynamic TV
# solve on a 45x45 grid (an odd row length for the TV prox's flat passes),
# --jobs 1
# and 2, evaluate, and the exit codes in rcs.txt. Seven are bad arguments and
# exit 2: an unknown scheme (rc_bogus), an unknown denoiser (rc_den), a
# gaussian2d budget below its ACS disc (rc_budget), R=0.5 (rc_acc), a 0x0
# grid (rc_grid), --strength nan (rc_nan) and an evaluate with k-space files
# and --w-nmae -1 (rc_weight). Two have their outputs deleted:
# --estimate-sens with an R=4 pseudo-radial mask, which has no ACS region,
# fails its solve and exits 1 (rc_est_radial), and with an R=1 equispaced
# mask with 8 ACS lines it exits 0 (rc_est_r1). Two are bad input files and
# exit 1: the 48x48 equispaced mask given as --kspace (rc_kind), and
# evaluate of the 48x48 truth against the 45x45 3-frame one (rc_eval_shape).
# The 45x45 maps given with the 48x48 mask exit 1 (rc_sens_grid). The 3-frame
# 45x45 solve is scored by evaluate (e_odd.csv, rc_eval_odd), with no ssim3d
# row since it has fewer frames than the SSIM window.
#
# For a change that may move floating-point round-off, compare the two
# OUT_DIRs with scripts/golden_compare.py instead, which allows small
# differences in reconstructions, their PGM previews and scale sidecars.
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
$M mask --scheme pseudo-radial --size 64x64 --accel 8 --seed 5 --out m64_pseudo-radial.cks >/dev/null
$M mask --scheme random-rectilinear --size 40x56 --accel 3.3 --acs 6 --seed 9 --out mr.cks >/dev/null
$M simulate --size 48 --coils 4 --seed 3 --mask m_equispaced.cks --out-prefix s >/dev/null
$M simulate --size 48 --coils 4 --seed 4 --mask m_gaussian2d.cks --out-prefix g >/dev/null
$M simulate --size 48 --frames 7 --coils 4 --seed 6 --mask m_equispaced.cks --out-prefix d >/dev/null
$M simulate --size 48 --frames 3 --coils 4 --seed 7 --mask m_random-rectilinear.cks --out-prefix dr >/dev/null
$M simulate --size 48 --frames 6 --coils 4 --seed 10 --mask m_random-rectilinear.cks --out-prefix dg >/dev/null
$M mask --scheme equispaced --size 45x45 --accel 4 --acs 8 --seed 11 --out m45.cks >/dev/null
$M simulate --size 45 --frames 3 --coils 4 --seed 12 --mask m45.cks --out-prefix o >/dev/null
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
$M reconstruct --kspace dr_kspace_masked.cks --mask m_random-rectilinear.cks --estimate-sens --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_dynR >/dev/null
$M reconstruct --kspace dg_kspace_masked.cks --mask m_random-rectilinear.cks --sens dg_sens.cks --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_dynG >/dev/null
$M reconstruct --kspace o_kspace_masked.cks --mask m45.cks --sens o_sens.cks --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_odd >/dev/null
$M reconstruct --kspace a/v1.cks a/v3.cks --mask m_equispaced.cks --sens s_sens.cks --jobs 1 --out-prefix j1 >/dev/null
$M reconstruct --kspace a/v1.cks a/v3.cks --mask m_equispaced.cks --sens s_sens.cks --jobs 2 --out-prefix j2 >/dev/null
printf 'denoiser=tv\nstrength=1e-3\nlam=0.1\nT=5\n' > rc.conf
$M reconstruct --config rc.conf --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --inner 3 --out-prefix r_conf >/dev/null
# evaluate writes CSV $1 and records its other arguments in $1.argv, one a
# line, from which golden_compare.py re-scores the parent's files
ev() { local out=$1; shift; printf '%s\n' evaluate "$@" > "$out.argv"; $M evaluate "$@" --out "$out" >/dev/null; }
ev e_static.csv --truth s_truth.cks --pred r_tv.cks --kspace-truth s_kspace_full.cks --kspace-pred s_kspace_full.cks
ev e_dyn.csv --truth d_truth.cks --pred r_dyn.cks --kspace-truth d_kspace_full.cks --kspace-pred d_kspace_full.cks --normalize frame
ev e_zf.csv --truth s_truth.cks --pred r_zf.cks
# error exits must stay the same too
set +e
$M mask --scheme bogus --size 8x8 --accel 2 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_bogus=$?" > rcs.txt
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --denoiser wavelet --out-prefix x >/dev/null 2>&1; echo "rc_den=$?" >> rcs.txt
$M mask --scheme gaussian2d --size 16x16 --accel 8 --acs-radius 6 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_budget=$?" >> rcs.txt
$M mask --scheme equispaced --size 16x16 --accel 0.5 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_acc=$?" >> rcs.txt
$M mask --scheme pseudo-radial --size 0x0 --accel 4 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_grid=$?" >> rcs.txt
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --denoiser tv --strength nan --out-prefix x_nan >/dev/null 2>&1; echo "rc_nan=$?" >> rcs.txt
$M reconstruct --kspace g_kspace_full.cks --mask m_pseudo-radial.cks --estimate-sens --T 2 --out-prefix x_rad >/dev/null 2>&1; echo "rc_est_radial=$?" >> rcs.txt
$M reconstruct --kspace g_kspace_full.cks --mask m1_equispaced.cks --estimate-sens --T 2 --out-prefix x_r1 >/dev/null 2>&1; echo "rc_est_r1=$?" >> rcs.txt
$M reconstruct --kspace m_equispaced.cks --mask m_equispaced.cks --sens s_sens.cks --out-prefix x_kind >/dev/null 2>&1; echo "rc_kind=$?" >> rcs.txt
$M evaluate --truth s_truth.cks --pred o_truth.cks --out x_eval.csv >/dev/null 2>&1; echo "rc_eval_shape=$?" >> rcs.txt
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens o_sens.cks --out-prefix x_grid >/dev/null 2>&1; echo "rc_sens_grid=$?" >> rcs.txt
ev e_odd.csv --truth o_truth.cks --pred r_odd.cks --kspace-truth o_kspace_full.cks --kspace-pred o_kspace_full.cks 2>/dev/null; echo "rc_eval_odd=$?" >> rcs.txt
$M evaluate --truth s_truth.cks --pred r_tv.cks --kspace-truth s_kspace_full.cks --kspace-pred s_kspace_full.cks --w-nmae -1 --out x_weight.csv >/dev/null 2>&1; echo "rc_weight=$?" >> rcs.txt
rm -f x_rad* x_r1* x_nan*
set -e
find . -type f ! -name hashes.txt | sort | xargs sha256sum > hashes.txt
wc -l hashes.txt
