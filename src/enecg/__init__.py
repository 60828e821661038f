"""Frozen heterogeneous experts, LoRA output heads and MoE gating for
multi-task analysis of 12-lead ECG-like signals, with synthetic data,
ensemble-strategy baselines, efficiency accounting and integrated-gradients
saliency."""

from .autodiff import Tensor, Tape, backward, no_grad
from .optim import Adam, finite_diff_grad
from .signal import EcgRecord, GeneratorConfig, LabelSet, downsample, generate, leads_sample
from .experts import ExpertModel, build_expert, expert_forward
from .adapters import LoraHead, LoraLinear, build_head, head_forward, trainable_params
from .gating import GatingNetwork, build_gate, ensemble_combine, gate_forward
from .pipeline import (
    ExperimentConfig, ExpertSpec, MetricsReport, TaskModel, TrainedModel,
    bench, compare_strategies, evaluate, forward_enecg, run_experiment, train,
)
from .saliency import SaliencyMap, integrated_gradients
from .tasks import TASKS, TaskSpec

__version__ = "0.1.0"

__all__ = [
    "Tensor", "Tape", "backward", "no_grad", "Adam", "finite_diff_grad",
    "EcgRecord", "GeneratorConfig", "LabelSet", "downsample", "generate", "leads_sample",
    "ExpertModel", "build_expert", "expert_forward",
    "LoraHead", "LoraLinear", "build_head", "head_forward", "trainable_params",
    "GatingNetwork", "build_gate", "ensemble_combine", "gate_forward",
    "ExperimentConfig", "ExpertSpec", "MetricsReport", "TaskModel", "TrainedModel",
    "bench", "compare_strategies", "evaluate", "forward_enecg", "run_experiment",
    "train",
    "SaliencyMap", "integrated_gradients",
    "TASKS", "TaskSpec",
    "__version__",
]
