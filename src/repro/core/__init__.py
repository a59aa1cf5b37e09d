"""DAS-DRAM core: the paper's primary contribution.

Asymmetric-subarray organisation, exclusive-cache translation, the
lightweight row-migration engine, promotion filtering, fast-level
replacement, and the design-variant factories.
"""

from .inclusive import InclusiveManager
from .manager import DASManager, StaticAsymmetricManager
from .migration import MigrationEngine
from .organization import AsymmetricOrganization
from .promotion import (
    AlwaysPromote,
    PromotionPolicy,
    ThresholdFilter,
    make_promotion_policy,
)
from .replacement import (
    FastLevelReplacement,
    GlobalCounterReplacement,
    LRUReplacement,
    RandomReplacement,
    SequentialReplacement,
    make_fast_replacement,
)
from .translation import (
    LLCTranslationPartition,
    TranslationCache,
    TranslationTable,
)
from .variants import DESIGN_ORDER, PROFILED_DESIGNS, build_memory_system

__all__ = [
    "InclusiveManager",
    "DASManager",
    "StaticAsymmetricManager",
    "MigrationEngine",
    "AsymmetricOrganization",
    "AlwaysPromote",
    "PromotionPolicy",
    "ThresholdFilter",
    "make_promotion_policy",
    "FastLevelReplacement",
    "GlobalCounterReplacement",
    "LRUReplacement",
    "RandomReplacement",
    "SequentialReplacement",
    "make_fast_replacement",
    "LLCTranslationPartition",
    "TranslationCache",
    "TranslationTable",
    "DESIGN_ORDER",
    "PROFILED_DESIGNS",
    "build_memory_system",
]
