"""fairdrop: repair group unfairness in ReLU classifiers by searching
inference-time dropout masks with simulated annealing or random walk."""

__version__ = "0.1.0"

from .dataset import (DataError, DatasetSchema, ParseError, SchemaError, SplitDataset,
                      SplitSizeError, TabularDataset, load_csv, split, synthesize_biased)
from .metrics import ConfusionCounts, accuracy, confusion, f1, fairness
from .model import (MlpArchitecture, MlpModel, ModelFormatError, ShapeError, TrainConfig,
                    TrainingError, load_model, predict_batch, save_model, train)
from .oracle import (DEFAULT_ENUMERATION_BUDGET, EnumerationBudgetError,
                     single_neuron_baseline)
from .prng import XorShift64Star
from .search import (CostEvaluator, CostParams, DropoutState, SearchConfig, SearchResult,
                     SearchSpaceBounds, SearchSpaceError, baseline_cost_params, run_search)
