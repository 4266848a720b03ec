"""Graffix core: the paper's three approximate graph transforms."""

from .coalesce import GraffixGraph, transform_graph
from .confluence import CONFLUENCE_OPERATORS, merge_replicas
from .divergence import DivergencePlan, bucket_order, degree_sim, normalize_degrees
from .knobs import (
    CoalescingKnobs,
    DivergenceKnobs,
    SharedMemoryKnobs,
    recommended_cc_threshold,
    recommended_connectedness,
)
from .pipeline import TECHNIQUES, ExecutionPlan, build_plan
from .renumber import RenumberResult, renumber
from .report import TransformReport, report_transform
from .serialize import load_plan, save_plan
from .replicate import ReplicationResult, replicate
from .shmem import SharedMemoryPlan, plan_shared_memory

__all__ = [
    "CONFLUENCE_OPERATORS",
    "CoalescingKnobs",
    "DivergenceKnobs",
    "DivergencePlan",
    "ExecutionPlan",
    "GraffixGraph",
    "RenumberResult",
    "ReplicationResult",
    "SharedMemoryKnobs",
    "SharedMemoryPlan",
    "TECHNIQUES",
    "TransformReport",
    "bucket_order",
    "build_plan",
    "degree_sim",
    "merge_replicas",
    "normalize_degrees",
    "plan_shared_memory",
    "recommended_cc_threshold",
    "recommended_connectedness",
    "renumber",
    "report_transform",
    "load_plan",
    "save_plan",
    "replicate",
    "transform_graph",
]
