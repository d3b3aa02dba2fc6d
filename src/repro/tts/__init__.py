"""Test-time scaling: tasks, reward models, and selection algorithms.

* :mod:`repro.tts.tasks` — synthetic reasoning benchmark + model profiles.
* :mod:`repro.tts.reward` — ORM/PRM simulators (Skywork-PRM stand-in).
* :mod:`repro.tts.best_of_n` / :mod:`repro.tts.beam_search` /
  :mod:`repro.tts.self_consistency` — the three parallel methods.
* :mod:`repro.tts.scaling` — budget sweeps (Fig. 5, Fig. 10 accuracy axis).
* :mod:`repro.tts.accuracy_model` — quantization damage -> accuracy map.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.attach(globals(), names={
    "accuracy_model": ("KL_SCALE", "accuracy_under_quantization",
                       "calibrate_kl_scale"),
    "beam_search": ("BeamSearchResult", "beam_search_single",
                    "evaluate_beam_search"),
    "best_of_n": ("BestOfNResult", "best_of_n_single", "evaluate_best_of_n"),
    "mcts": ("MCTSResult", "evaluate_mcts", "mcts_single"),
    "reward": ("RewardModel", "reward_auc"),
    "scaling": ("DEFAULT_BUDGETS", "SCALING_METHODS", "ScalingCurve",
                "budget_sweep"),
    "self_consistency": ("SelfConsistencyResult", "evaluate_self_consistency",
                         "majority_vote", "weighted_majority_vote"),
    "tasks": ("DATASET_PROFILES", "MODEL_PROFILES", "ModelProfile",
              "ReasoningProblem", "SampledSolution", "TaskDataset",
              "analytic_pass_at_n", "get_model_profile", "sample_solutions"),
})
