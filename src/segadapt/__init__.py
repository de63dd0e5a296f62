"""Source-free domain adaptation for 2D segmentation on a numpy autodiff core."""

from .autodiff import BatchNorm2d, Tape, Tensor
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import AdaptConfig, Config, ConfigError, DataConfig, PretrainConfig, parse_config
from .data import DatasetError, LabeledSet, UnlabeledSet, load_dataset, save_dataset
from .estimators import (FineTuner, MultiHeadAdapter, PtbnAdapter, SelfTrainAdapter,
                         SourceTrainer, TentAdapter, TrainLog)
from .inference import NumericFailure, infer_ensemble, infer_single
from .losses import dice_loss, mean_prediction_entropy
from .metrics import (CaseResult, DegenerateStatsError, aggregate, assd,
                      dice_coefficient, paired_t_test)
from .model import ArchConfig, SegModel
from .optim import Adam
from .pseudolabel import (PseudoLabelBundle, cleanup_label_map, ensemble_mean,
                          label_components, make_pseudo_label, one_hot, reliability_map)
from .rng import named_stream
from .synthdata import BENCHMARKS, DomainSpec, generate_benchmark, generate_domain
from .transforms import (FAMILY, IDENTITY, SpatialTransform, apply_inverse,
                         apply_transform, inverse, sample_transform)

__version__ = "0.1.0"
