"""Joint ranking-and-rating model with a shared consensus ordering.

Rankings follow a Mallows model under the Kendall tau distance and ratings
follow per-object Binomial distributions whose success probabilities double
as quality scores: smaller means better, and sorting them yields the modal
ranking.  The package fits the model by maximum likelihood, quantifies
uncertainty by nonparametric bootstrap, and checks the estimator's
large-sample behavior by simulation.
"""

from . import estimation, model, sampling
from .estimation import *
from .model import *
from .sampling import *

__version__ = "0.1.0"

# each module's ``__all__`` is its public API; the package republishes three
__all__ = [*model.__all__, *estimation.__all__, *sampling.__all__, "__version__"]
