"""Margin-preserving Mahalanobis metric learning with latent examples.

Learns a distance metric jointly with a small set of per-class latent
examples: the latent stage clusters each class under the current metric
with a proximal anchor, the metric stage runs active-triplet SGD with
data-dependent margins, and the two alternate until the triplet hinge
loss converges.
"""

from .core import (Dataset, Metric, TrainConfig, full_loss_all,
                   pairwise_mahalanobis_sq)
from .latent import (LatentModel, assign_membership, compute_margins,
                     init_latents, run_latent_stage, update_latents)
from .metric import (alpha_suffix_average, build_active_set, frobenius_project,
                     hinge_subgradient, psd_project, run_metric_stage)
from .driver import TrainResult, train_mapml, train_random_triplet_baseline
from .evaluation import EvalReport, add_gaussian_noise, evaluate, knn_predict
from .data_io import (ModelFile, SyntheticSpec, generate_synthetic, load_csv,
                      load_idx, load_model, save_model)

__version__ = "0.1.0"
