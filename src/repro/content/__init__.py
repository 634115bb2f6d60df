"""Content model: items, synthetic site catalogs, and the document tree."""

from .catalog import (DYNAMIC_MIX, STATIC_MIX, SiteCatalog, TypeMix,
                      generate_catalog, paper_catalog)
from .doctree import (DirectoryNode, DocTree, DocTreeError, FileNode,
                      replica_set)
from .model import (DYNAMIC_WEIGHTS, STATIC_WEIGHTS, ContentItem, ContentType,
                    LoadWeights, Priority)

__all__ = [
    "ContentItem", "ContentType", "Priority", "LoadWeights",
    "STATIC_WEIGHTS", "DYNAMIC_WEIGHTS",
    "SiteCatalog", "TypeMix", "generate_catalog", "paper_catalog",
    "STATIC_MIX", "DYNAMIC_MIX",
    "DocTree", "FileNode", "DirectoryNode", "DocTreeError", "replica_set",
]
