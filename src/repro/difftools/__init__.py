"""Binary diffing tools.

Re-implementations of the measurement side of the paper:

* :mod:`repro.difftools.ncd` — normalized compression distance, BinTuner's
  fitness function (§4.2);
* :mod:`repro.difftools.binhunt` — BinHunt's difference score (Appendix A),
  the paper's objective reference for Figures 5/6 and Tables 4/5/7/8;
* :mod:`repro.difftools.matchers` — the seven "prominent tools" compared in
  Figure 8 (Asm2Vec, INNEREYE, VulSeeker, IMF-SIM, CoP, Multi-MH, BinSlayer)
  plus a BinDiff-style statistical matcher;
* :mod:`repro.difftools.metrics` — Precision@1 and matched-ratio metrics.
"""

from repro.difftools.ncd import (
    ncd,
    ncd_images,
    compressed_size,
    JointCompressor,
    NCDFitness,
    CachedNCDFitness,
)
from repro.difftools.binhunt import BinHunt, BinHuntResult
from repro.difftools.base import DiffTool, MatchResult
from repro.difftools.matchers import (
    BinDiffMatcher,
    BinSlayer,
    Asm2Vec,
    InnerEye,
    VulSeeker,
    IMFSim,
    CoP,
    MultiMH,
    ALL_TOOLS,
    make_tool,
)
from repro.difftools.metrics import precision_at_1, matched_ratios, MatchedRatios

__all__ = [
    "ncd",
    "ncd_images",
    "compressed_size",
    "JointCompressor",
    "NCDFitness",
    "CachedNCDFitness",
    "BinHunt",
    "BinHuntResult",
    "DiffTool",
    "MatchResult",
    "BinDiffMatcher",
    "BinSlayer",
    "Asm2Vec",
    "InnerEye",
    "VulSeeker",
    "IMFSim",
    "CoP",
    "MultiMH",
    "ALL_TOOLS",
    "make_tool",
    "precision_at_1",
    "matched_ratios",
    "MatchedRatios",
]
