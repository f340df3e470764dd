"""Amino-acid interaction network prediction over SSE graphs.

Pipeline: parse a structure, build its SSE interaction network (the Cα
contact graph over the residues of its secondary structure elements),
predict the SSE-level graph with a multi-objective evolutionary algorithm,
then predict residue-level shortcut edges with a two-stage ant colony
optimizer validated against family topology profiles.
"""

from .aco import AcoParams
from .contact import SseInGraph, build_contact_map
from .ingest import ProteinStructure, Residue, SseAnnotation
from .metrics import TopologicalProfile, topological_profile
from .moga import GaParams, SseContext, run_moga
from .pipeline import RunConfig, RunReport, run_benchmark, run_predict

__version__ = "0.1.0"

__all__ = [
    "AcoParams",
    "GaParams",
    "ProteinStructure",
    "Residue",
    "RunConfig",
    "RunReport",
    "SseAnnotation",
    "SseContext",
    "SseInGraph",
    "TopologicalProfile",
    "build_contact_map",
    "run_benchmark",
    "run_moga",
    "run_predict",
    "topological_profile",
    "__version__",
]
