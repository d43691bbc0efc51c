"""DR-STRaNGe: the paper's contribution (buffer, predictors, RNG-aware scheduler)."""

from .config import DRStrangeConfig
from .fill_policies import DRStrangeFillPolicy, GreedyIdleFillPolicy, NoFillPolicy
from .idleness_predictor import IdlenessPredictor, PredictorStats, SimpleIdlenessPredictor
from .rl_predictor import QLearningIdlenessPredictor
from .rng_buffer import BufferStats, RandomNumberBuffer
from .rng_scheduler import ApplicationRegistry, RNGAwareQueuePolicy, RNGSchedulerStats
from .rng_subsystem import RNGSubsystem, RNGSubsystemStats

__all__ = [
    "ApplicationRegistry",
    "BufferStats",
    "DRStrangeConfig",
    "DRStrangeFillPolicy",
    "GreedyIdleFillPolicy",
    "IdlenessPredictor",
    "NoFillPolicy",
    "PredictorStats",
    "QLearningIdlenessPredictor",
    "RNGAwareQueuePolicy",
    "RNGSchedulerStats",
    "RNGSubsystem",
    "RNGSubsystemStats",
    "RandomNumberBuffer",
    "SimpleIdlenessPredictor",
]
