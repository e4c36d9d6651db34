"""Crosstalk removal for two-color heterodyne interferometry.

The pipeline: synthesize or acquire a two-channel heterodyne record,
whiten it, separate the channels with fixed-point ICA, demodulate each
recovered carrier to an unwrapped phase track, and combine the tracks
into line-integrated electron density. A frequency diplexer applies the
same separation idea to cleaning up short FIR band splits.
"""

from . import demod, diplexer, fastica, fileio, metrics, preprocess, signalgen
from .demod import *
from .diplexer import *
from .fastica import *
from .fileio import *
from .metrics import *
from .preprocess import *
from .signalgen import *

__version__ = "0.1.0"

__all__ = [*demod.__all__, *diplexer.__all__, *fastica.__all__, *fileio.__all__,
           *metrics.__all__, *preprocess.__all__, *signalgen.__all__]
