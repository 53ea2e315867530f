"""One-step multi-view clustering on low-rank consensus anchor graphs.

Pipeline: per-view k-means anchors -> normalized k-NN anchor graphs ->
jointly learn a low-rank consensus graph, a non-negative soft indicator,
and adaptive view weights -> hard labels by row-argmax. Everything scales
linearly in the sample count.
"""

from .anchors import (
    AnchorGraphSet,
    AnchorSet,
    build_all,
    build_anchor_graph,
    select_anchors,
)
from .dataset import (
    MultiViewDataset,
    load_dataset,
    save_dataset,
    synth_blobs,
    zscore,
)
from .graph_tools import reconstruct_full_graph, reconstruct_top_k
from .metrics import evaluate_all
from .solver import (
    ClusteringResult,
    SolverConfig,
    SolverState,
    fit,
    labels_from_F,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorGraphSet",
    "AnchorSet",
    "ClusteringResult",
    "MultiViewDataset",
    "SolverConfig",
    "SolverState",
    "build_all",
    "build_anchor_graph",
    "evaluate_all",
    "fit",
    "labels_from_F",
    "load_dataset",
    "reconstruct_full_graph",
    "reconstruct_top_k",
    "save_dataset",
    "select_anchors",
    "synth_blobs",
    "zscore",
]
