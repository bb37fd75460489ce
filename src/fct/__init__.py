"""Recurrent-concept data stream mining with compressed tree reuse."""

from .adwin import AdwinDetector
from .driver import FctConfig, FctState, RunReport, WinnerRef, run
from .forest import Forest, Scoreboard
from .hoeffding import HoeffdingTree, TreePath, hoeffding_bound
from .repository import Repository, RepositoryEntry
from .spectrum import (
    FourierSpectrum,
    dft,
    dft_from_paths,
    inverse_classify,
    spectra_equal,
)
from .stream import (
    Binarizer,
    ConceptSchedule,
    Instance,
    InstanceStream,
    Schema,
    Segment,
    binarize,
    file_stream,
    recurring_schedule,
    synthetic_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AdwinDetector", "FctConfig", "FctState", "RunReport", "WinnerRef", "run",
    "Forest", "Scoreboard", "HoeffdingTree", "TreePath", "hoeffding_bound",
    "Repository", "RepositoryEntry", "FourierSpectrum", "dft",
    "dft_from_paths", "inverse_classify", "spectra_equal",
    "Binarizer", "ConceptSchedule", "Instance", "InstanceStream", "Schema",
    "Segment", "binarize", "file_stream", "recurring_schedule",
    "synthetic_stream",
]
