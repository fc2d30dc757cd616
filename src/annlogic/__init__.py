"""Interpret simple feed-forward ReLU networks as weighted Boolean logic.

The pipeline: fuzzify tabular attributes, feed minterm values into a
bias-free network with one ReLU layer, partition the input space by ReLU
activation pattern, read off each cell's exact linear minterm-weight map,
scale and bit-code the weights into per-level logic expressions, and
inspect them as binary logic trees, Shapley values, projections, trend
grids, and hypothesis comparisons.
"""

from .encoding import (
    FuzzifierSpec,
    fit_fuzzifier,
    fuzzify,
    minterm_transform,
)
from .network import (
    SimpleAnn,
    TrainConfig,
    classify,
    forward,
    load_model,
    relu_status,
    save_model,
    train,
)
from .partition import (
    CellWeights,
    extract_cell_weights,
    partition_dataset,
    shapley,
)
from .logiccode import (
    BitTensor,
    EnergyReport,
    ScaledCellWeights,
    approx_forward,
    bitcode,
    energy_report,
    level_accuracy,
    level_expression,
    project,
    scale_weights,
)
from .qldt import NodeTable, build_qldt, eval_qldt, render
from .analysis import (
    ComparisonMetrics,
    TrendGrid,
    compare,
    parse_hypothesis,
    trend_grid,
)

__version__ = "0.1.0"
