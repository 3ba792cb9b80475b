"""fairdrop: repair group unfairness in ReLU classifiers by searching
inference-time dropout masks with simulated annealing or random walk."""

__version__ = "0.1.0"

from .dataset import (DataError, DatasetSchema, ParseError, SchemaError, SplitDataset,
                      SplitSizeError, TabularDataset, load_csv, split, synthesize_biased)
from .metrics import (ConfusionCounts, FairnessReport, GroupRates, accuracy, confusion,
                      f1, fairness)
from .model import (MlpArchitecture, MlpModel, ModelFormatError, ShapeError, TrainConfig,
                    TrainingError, forward, load_model, predict_batch, predict_proba,
                    save_model, train)
from .oracle import (DEFAULT_ENUMERATION_BUDGET, EnumerationBudgetError, StateCensus,
                     census, enumerate_best, iter_states, single_neuron_baseline)
from .prng import XorShift64Star
from .search import (CostEvaluation, CostEvaluator, CostParams, DropoutState,
                     SearchConfig, SearchResult, SearchSpaceBounds, SearchSpaceError,
                     TemperatureSchedule, TraceRecord, baseline_cost_params,
                     estimate_initial_temperature, generate_neighbor, penalized_cost,
                     random_state, run_search, valid_flip_positions, worst_case_t0,
                     write_trace_csv)
