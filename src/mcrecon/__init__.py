"""Multi-coil MRI reconstruction: forward model, unrolled ADMM solver,
undersampling schemes, sensitivity estimation, and quality metrics."""

from .core import ComplexImage, KSpaceData, SamplingMask, SensitivityMaps, rss
from .fourier import ForwardOperator, fft2c, ifft2c
from .metrics import (
    LossWeights,
    UndefinedMetricError,
    dual_domain_loss,
    hfen1,
    nmae,
    nmse,
    psnr,
    score_volume,
    ssim,
    ssim3d,
)
from .sampling import (
    achieved_acceleration,
    equispaced_mask,
    full_mask,
    gaussian2d_mask,
    make_mask,
    pseudo_radial_mask,
    pseudo_spiral_mask,
    random_rectilinear_mask,
)
from .sensitivity import estimate_from_acs
from .solver import (
    AdmmConfig,
    DenoiserSpec,
    admm_reconstruct,
    data_consistency_step,
    denoise_step,
    multiplier_update,
    zero_filled_init,
)

__version__ = "0.1.0"
