"""Baseline optimizers and reference designs the paper compares against."""

from repro.baselines.mesmoc import MESMOC
from repro.baselines.usemoc import USeMOC
from repro.baselines.tlmbo import TLMBO
from repro.baselines.human_expert import evaluate_expert, expert_design

__all__ = ["MESMOC", "USeMOC", "TLMBO", "evaluate_expert", "expert_design"]
