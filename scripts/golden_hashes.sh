#!/usr/bin/env bash
# Run a fixed set of small CLI commands against the mcrecon package in
# SRC_DIR (a checkout root, whose src/ is then used, or that src/) and write
# the SHA-256 of every output file to OUT_DIR/hashes.txt. A SRC_DIR with no
# mcrecon package exits 2.
# Running it on two checkouts and diffing the two hashes.txt files shows
# whether a change keeps every CLI output byte-identical. It covers all five
# mask schemes at R=4 and R=1, each with its own --acs (8 ACS lines for the
# rectilinear schemes, a disc of radius 3 for gaussian2d, 0 for pseudo-radial
# and pseudo-spiral), a 64x64 R=8 pseudo-radial mask (many more
# spokes than 48x48 R=4), every denoiser name, zero-filled (--T 0), --config,
# --estimate-sens, --mode dynamic with and without --T/--inner, a dynamic
# TV solve with --estimate-sens on a random-rectilinear mask, one with
# --sens at 6 frames (r_dynG, on the row Gram path like the 7-frame dynamic
# solves), a --T 0 solve of that 6-frame input (r_dynG_t0, the zero-filled
# start with no Gram form built), a dynamic TV solve with --sens at 4 frames
# on an equispaced mask (r_dyn4),
# a 3-frame dynamic TV solve on a 45x45 grid (an odd row length for the TV
# prox's flat passes), a static l1 solve with --estimate-sens on a 64x64
# equispaced mask with 16 ACS lines (r_crop: the estimated maps' support box
# keeps 61 of 64 rows and 55 of 64 columns, so the row Gram path runs on a
# box smaller than the grid in both directions), the same with --T 4
# --inner 5 (r_cropC: the column-DFT path on that box), a 6-frame dynamic TV
# solve with --estimate-sens on that mask (r_dynC: the row Gram path with its
# box), --jobs 1 and 2, evaluate,
# and the exit codes in rcs.txt. Nine are bad arguments and
# exit 2: an unknown scheme (rc_bogus), an unknown denoiser (rc_den), a
# gaussian2d budget below its ACS disc (rc_budget), R=0.5 (rc_acc), a 0x0
# grid (rc_grid), --strength nan (rc_nan), the --acs-radius flag, which is
# not an option (rc_acs_radius), --acs 8 for pseudo-spiral, which has no ACS
# region (rc_acs_spiral), and 24 ACS lines on a 64x64 R=8 equispaced mask,
# more than its 8 columns (rc_acs_r8). Three have their outputs deleted:
# --estimate-sens with an R=4 pseudo-radial mask, which has no ACS region,
# fails its solve and exits 1 (rc_est_radial); with an R=1 equispaced mask
# with 8 ACS lines it exits 0 (rc_est_r1); with a 2-line ACS block, whose
# Hann window is all zero, it exits 1 (rc_est_acs2). Two are bad input files and
# exit 1: the 48x48 equispaced mask given as --kspace (rc_kind), and
# evaluate of the 48x48 truth against the 45x45 3-frame one (rc_eval_shape).
# The 45x45 maps given with the 48x48 mask exit 1 (rc_sens_grid). --sens and
# --estimate-sens together exit 2, as the two are exclusive (rc_sens_both). A
# 16x16 equispaced mask with no --acs takes make_mask's 0 ACS lines and exits
# 0 (rc_mask_small); its output is deleted. A config file with the line
# estimate-sens=true sets that flag and exits 0 (rc_conf_flag); the file and
# its outputs are deleted. The 3-frame 45x45 solve is scored
# by evaluate (e_odd.csv, rc_eval_odd), with no ssim3d row since it has fewer
# frames than the SSIM window.
#
# solver.chebyshev_values sets the inner Chebyshev cap K and
# solver.GradientSteps.stop the per-step stop. r_gstop (a gaussian2d
# point-mask solve at lam 1 and the static defaults) runs at most 10 of its
# 14 inner iterations per step, as j1, j2 and r_full do too.
# A rectilinear solve takes the row Gram path when its Gram iterations,
# frames * T * (K - 1), reach solver.GRAM_MIN_ITERS (64); the rule is
# admm_reconstruct's, set out in the comment beside that constant. Below it, on
# the column-DFT path: r_conf (1 frame, T 5, inner 3: 10), r_explicit (T 3,
# inner 5: 12) and r_cropC (T 4, inner 5: 16). At or above it, on the row
# Gram path: r_dynI (7 frames, T 10, inner 2: 70, the nearest), the one-frame
# solves at the static defaults (T 16, inner 14: 208 at lam 0.1, the
# per-denoiser r_* and r_crop; 144 at lam 1, j1 and j2) and every other
# dynamic solve (3 frames or more at T 10, inner 8, and r_dynT's 7 frames at
# T 3: 147 or more).
#
# For a change that may move floating-point round-off, compare the two
# OUT_DIRs with scripts/golden_compare.py instead, which allows small
# differences in reconstructions, their PGM previews and scale sidecars, and
# compares rcs.txt per exit code (declare an intended one with --expect).
#
# Usage: bash scripts/golden_hashes.sh SRC_DIR OUT_DIR   (SRC_DIR a checkout or its src/;
#        OUT_DIR empty or absent)
set -euo pipefail
SRC=$1; OUT=$2
[ -d "$SRC/src/mcrecon" ] && SRC=$SRC/src
if [ ! -f "$SRC/mcrecon/__init__.py" ]; then
  echo "error: no mcrecon package in $1 or $1/src" >&2; exit 2
fi
SRC=$(cd "$SRC" && pwd)
if [ -n "$(ls -A "$OUT" 2>/dev/null)" ]; then echo "error: $OUT is not empty" >&2; exit 2; fi
mkdir -p "$OUT"; cd "$OUT"
export PYTHONPATH=$SRC
M="python3 -m mcrecon.cli"
for sa in equispaced:8 random-rectilinear:8 gaussian2d:3 pseudo-radial:0 pseudo-spiral:0; do
  s=${sa%:*}; a=${sa#*:}
  $M mask --scheme $s --size 48x48 --accel 4 --acs $a --seed 5 --out m_$s.cks >/dev/null
  $M mask --scheme $s --size 48x48 --accel 1 --acs $a --seed 5 --out m1_$s.cks >/dev/null
done
$M mask --scheme pseudo-radial --size 64x64 --accel 8 --seed 5 --out m64_pseudo-radial.cks >/dev/null
$M mask --scheme random-rectilinear --size 40x56 --accel 3.3 --acs 6 --seed 9 --out mr.cks >/dev/null
$M mask --scheme equispaced --size 48x48 --accel 4 --acs 2 --seed 5 --out m_acs2.cks >/dev/null
$M mask --scheme equispaced --size 64x64 --accel 4 --acs 16 --seed 5 --out m64_equispaced.cks >/dev/null
$M simulate --size 48 --coils 4 --seed 3 --mask m_equispaced.cks --out-prefix s >/dev/null
$M simulate --size 48 --coils 4 --seed 4 --mask m_gaussian2d.cks --out-prefix g >/dev/null
$M simulate --size 48 --frames 7 --coils 4 --seed 6 --mask m_equispaced.cks --out-prefix d >/dev/null
$M simulate --size 48 --frames 3 --coils 4 --seed 7 --mask m_random-rectilinear.cks --out-prefix dr >/dev/null
$M simulate --size 48 --frames 6 --coils 4 --seed 10 --mask m_random-rectilinear.cks --out-prefix dg >/dev/null
$M simulate --size 48 --frames 4 --coils 4 --seed 15 --mask m_equispaced.cks --out-prefix d4 >/dev/null
$M mask --scheme equispaced --size 45x45 --accel 4 --acs 8 --seed 11 --out m45.cks >/dev/null
$M simulate --size 45 --frames 3 --coils 4 --seed 12 --mask m45.cks --out-prefix o >/dev/null
$M simulate --size 64 --coils 4 --seed 13 --mask m64_equispaced.cks --out-prefix c >/dev/null
$M simulate --size 64 --frames 6 --coils 4 --seed 14 --mask m64_equispaced.cks --out-prefix cg >/dev/null
mkdir -p a; cp s_kspace_masked.cks a/v1.cks
$M simulate --size 48 --coils 4 --seed 8 --mask m_equispaced.cks --out-prefix s8 >/dev/null
cp s8_kspace_masked.cks a/v3.cks
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --T 0 --out-prefix r_zf >/dev/null
for d in identity l1 l1-soft-threshold tikhonov tikhonov-smooth tv tv-chambolle; do
  st=1e-3; [ $d = identity ] && st=0
  $M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --denoiser $d --strength $st --lam 0.1 --out-prefix r_$d >/dev/null
done
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --T 3 --inner 5 --out-prefix r_explicit >/dev/null
$M reconstruct --kspace g_kspace_masked.cks --mask m_gaussian2d.cks --sens g_sens.cks --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_gauss >/dev/null
$M reconstruct --kspace g_kspace_masked.cks --mask m_gaussian2d.cks --sens g_sens.cks --lam 1 --out-prefix r_gstop >/dev/null
$M reconstruct --kspace g_kspace_masked.cks --mask m_gaussian2d.cks --estimate-sens --denoiser l1 --strength 1e-3 --lam 0.1 --out-prefix r_gest >/dev/null
$M reconstruct --kspace g_kspace_full.cks --mask m1_pseudo-radial.cks --sens g_sens.cks --T 4 --out-prefix r_full >/dev/null
$M reconstruct --kspace d_kspace_masked.cks --mask m_equispaced.cks --sens d_sens.cks --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_dyn >/dev/null
$M reconstruct --kspace d_kspace_masked.cks --mask m_equispaced.cks --estimate-sens --mode dynamic --T 3 --out-prefix r_dynT >/dev/null
$M reconstruct --kspace d_kspace_masked.cks --mask m_equispaced.cks --sens d_sens.cks --mode dynamic --inner 2 --out-prefix r_dynI >/dev/null
$M reconstruct --kspace dr_kspace_masked.cks --mask m_random-rectilinear.cks --estimate-sens --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_dynR >/dev/null
$M reconstruct --kspace dg_kspace_masked.cks --mask m_random-rectilinear.cks --sens dg_sens.cks --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_dynG >/dev/null
$M reconstruct --kspace dg_kspace_masked.cks --mask m_random-rectilinear.cks --sens dg_sens.cks --mode dynamic --T 0 --out-prefix r_dynG_t0 >/dev/null
$M reconstruct --kspace d4_kspace_masked.cks --mask m_equispaced.cks --sens d4_sens.cks --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_dyn4 >/dev/null
$M reconstruct --kspace o_kspace_masked.cks --mask m45.cks --sens o_sens.cks --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_odd >/dev/null
$M reconstruct --kspace c_kspace_masked.cks --mask m64_equispaced.cks --estimate-sens --denoiser l1 --strength 1e-3 --lam 0.1 --out-prefix r_crop >/dev/null
$M reconstruct --kspace c_kspace_masked.cks --mask m64_equispaced.cks --estimate-sens --denoiser l1 --strength 1e-3 --lam 0.1 --T 4 --inner 5 --out-prefix r_cropC >/dev/null
$M reconstruct --kspace cg_kspace_masked.cks --mask m64_equispaced.cks --estimate-sens --mode dynamic --denoiser tv --strength 1e-3 --lam 0.1 --out-prefix r_dynC >/dev/null
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
$M mask --scheme gaussian2d --size 16x16 --accel 8 --acs 6 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_budget=$?" >> rcs.txt
$M mask --scheme equispaced --size 16x16 --accel 0.5 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_acc=$?" >> rcs.txt
$M mask --scheme pseudo-radial --size 0x0 --accel 4 --seed 0 --out x.cks >/dev/null 2>&1; echo "rc_grid=$?" >> rcs.txt
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --denoiser tv --strength nan --out-prefix x_nan >/dev/null 2>&1; echo "rc_nan=$?" >> rcs.txt
$M reconstruct --kspace g_kspace_full.cks --mask m_pseudo-radial.cks --estimate-sens --T 2 --out-prefix x_rad >/dev/null 2>&1; echo "rc_est_radial=$?" >> rcs.txt
$M reconstruct --kspace g_kspace_full.cks --mask m1_equispaced.cks --estimate-sens --T 2 --out-prefix x_r1 >/dev/null 2>&1; echo "rc_est_r1=$?" >> rcs.txt
$M reconstruct --kspace s_kspace_masked.cks --mask m_acs2.cks --estimate-sens --T 2 --out-prefix x_acs2 >/dev/null 2>&1; echo "rc_est_acs2=$?" >> rcs.txt
$M reconstruct --kspace m_equispaced.cks --mask m_equispaced.cks --sens s_sens.cks --out-prefix x_kind >/dev/null 2>&1; echo "rc_kind=$?" >> rcs.txt
$M evaluate --truth s_truth.cks --pred o_truth.cks --out x_eval.csv >/dev/null 2>&1; echo "rc_eval_shape=$?" >> rcs.txt
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens o_sens.cks --out-prefix x_grid >/dev/null 2>&1; echo "rc_sens_grid=$?" >> rcs.txt
ev e_odd.csv --truth o_truth.cks --pred r_odd.cks --kspace-truth o_kspace_full.cks --kspace-pred o_kspace_full.cks 2>/dev/null; echo "rc_eval_odd=$?" >> rcs.txt
$M reconstruct --kspace s_kspace_masked.cks --mask m_equispaced.cks --sens s_sens.cks --estimate-sens --out-prefix x_both >/dev/null 2>&1; echo "rc_sens_both=$?" >> rcs.txt
$M mask --scheme equispaced --size 16x16 --accel 2 --seed 0 --out x_small.cks >/dev/null 2>&1; echo "rc_mask_small=$?" >> rcs.txt
$M mask --scheme gaussian2d --size 16x16 --accel 4 --acs-radius 3 --seed 0 --out x_acs.cks >/dev/null 2>&1; echo "rc_acs_radius=$?" >> rcs.txt
$M mask --scheme pseudo-spiral --size 16x16 --accel 4 --acs 8 --seed 0 --out x_acs.cks >/dev/null 2>&1; echo "rc_acs_spiral=$?" >> rcs.txt
$M mask --scheme equispaced --size 64x64 --accel 8 --acs 24 --seed 0 --out x_acs.cks >/dev/null 2>&1; echo "rc_acs_r8=$?" >> rcs.txt
printf 'estimate-sens=true\n' > x_flag.conf
$M reconstruct --config x_flag.conf --kspace s_kspace_masked.cks --mask m_equispaced.cks --T 2 --out-prefix x_flag >/dev/null 2>&1; echo "rc_conf_flag=$?" >> rcs.txt
rm -f x_rad* x_r1* x_nan* x_acs* x_both* x_small* x_flag*
set -e
find . -type f ! -name hashes.txt | sort | xargs sha256sum > hashes.txt
wc -l hashes.txt
