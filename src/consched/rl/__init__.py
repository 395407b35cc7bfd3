from .checkpoint import ensure_compatible, load_checkpoint, save_checkpoint
from .net import Architecture, PolicyNet, entropy_of, masked_log_softmax
from .optim import Adam, clip_grad_norm
from .reward import BRANCHES, RewardWeights, compute_reward, reward_from_terms

# consched.rl.train is imported on demand: it depends on the episode
# engine, which depends on policies, which uses the net defined here.

__all__ = [
    "Adam", "Architecture", "BRANCHES", "PolicyNet",
    "RewardWeights", "clip_grad_norm", "compute_reward", "ensure_compatible",
    "entropy_of", "load_checkpoint", "masked_log_softmax", "reward_from_terms",
    "save_checkpoint",
]
