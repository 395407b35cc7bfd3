"""Round-based GPU-cluster scheduling simulator with a network-contention
model, RL-trained scheduling policies, and a trace-driven comparison
pipeline against greedy/LAS/SRTF baselines."""

__version__ = "0.1.0"

from .cluster import ClusterConfig, ClusterState, Placement
from .contention import (ContentionParams, CSTable, ModelClass, ModelProfile,
                         contention_sensitivity, default_cs_table, load_cs_table)
from .workload import JobSpec, JobState, TraceSpec, generate_trace
