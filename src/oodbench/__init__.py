"""Benchmark suite for invariance- and bottleneck-regularized training
objectives on linear structural-equation-model tasks."""

__version__ = "0.1.0"
