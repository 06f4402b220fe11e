"""The quality check against the seed-commit reference."""

import pytest
import run
import workloads as wk

BOUNDS = {"ssim": 0.01, "psnr_db": 0.01, "nmse": 0.1}
BETTER = {"ssim": "higher", "psnr_db": "higher", "nmse": "lower"}
REF = {"ssim": 0.8, "psnr_db": 30.0, "nmse": 0.02}


@pytest.mark.parametrize(
    "change, fails",
    [
        ({}, False),
        ({"ssim": 0.795}, False),
        ({"ssim": 0.79}, True),
        ({"ssim": 0.95}, False),
        ({"psnr_db": 29.6}, True),
        ({"nmse": 0.0219}, False),
        ({"nmse": 0.0221}, True),
        ({"nmse": 0.001}, False),
    ],
)
def test_quality_fails_only_when_worse_than_the_bound(change, fails):
    quality = {**REF, **change}
    if fails:
        with pytest.raises(wk.CheckError):
            wk.check_quality(quality, REF, BOUNDS, BETTER)
    else:
        wk.check_quality(quality, REF, BOUNDS, BETTER)


def test_every_workload_has_reference_quality():
    for name in wk.WORKLOADS:
        ref, source = run.reference_quality(name, 0, BETTER)
        assert source == "seed 0" and set(ref) == set(BETTER)


def test_unrecorded_seed_uses_the_worst_recorded_value():
    name = next(iter(wk.WORKLOADS))
    worst, source = run.reference_quality(name, -12345, BETTER)
    table = run.json.loads((run.Path(run.__file__).parent / "reference_quality.json").read_text())
    recorded = table["workloads"][name].values()
    assert source.startswith("worst of")
    assert worst["ssim"] == min(q["ssim"] for q in recorded)
    assert worst["nmse"] == max(q["nmse"] for q in recorded)
