"""From-scratch supervised models, tuning and oversampling."""

from .baseline import BaselineModel
from .linear import LinearModel
from .logistic import LogisticModel
from .neighbors import KnnModel
from .bayes import GaussianNBModel
from .tree import DecisionTree, RandomForestModel
from .svm import SvmModel, rbf_kernel
from .mlp import MlpModel
from .resample import adasyn_resample
from .search import fold_plan, grid_search, GridSearchResult, make_model
from .errors import ConvergenceError

__all__ = [
    "BaselineModel", "LinearModel", "LogisticModel", "KnnModel",
    "GaussianNBModel", "DecisionTree", "RandomForestModel", "SvmModel",
    "rbf_kernel", "MlpModel", "adasyn_resample", "grid_search",
    "GridSearchResult", "make_model", "ConvergenceError", "fold_plan",
]
