"""Bundled datasets: the 23-animal three-grader score table transcribed
from the published study, and a synthetic measurement table whose column
means/stds match the published descriptive statistics (the raw per-animal
measurements were never released)."""

from pathlib import Path


def scores_path() -> Path:
    """CSV of the three graders' structure scores for all 23 animals."""
    return Path(__file__).with_name("table3_scores.csv")


def synthetic_path() -> Path:
    """Synthetic moment-matched measurement table (23 animals, all
    measurement columns plus the verbatim grader scores)."""
    return Path(__file__).with_name("synthetic_measurements.csv")
