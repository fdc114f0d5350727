"""Synthetic workload generators standing in for the paper's datasets.

Table II's datasets are proprietary (eBay), massive (Criteo-Terabyte,
Papers100M, Freebase86M) or both; each generator here plants the signal
its task needs (logistic structure for CTR, relational cluster structure
for KGE, homophily for GNN, fraud communities for the eBay graphs) and
preserves the *access-pattern* properties that matter to storage: skewed
key popularity, neighborhood expansion, and working sets larger than the
configured buffer.
"""

from repro.data.ctr import CTRDataset
from repro.data.kg import KGDataset
from repro.data.graphs import GraphDataset
from repro.data.ebay import make_trisk_graph, make_payout_graph
from repro.data.ycsb import YCSBWorkload, ZipfianGenerator, UniformGenerator
from repro.data.sampling import NeighborSampler
from repro.data.registry import DATASETS, DatasetSpec, table2_rows
from repro.data.arrivals import (
    DiurnalProcess,
    FlashCrowdProcess,
    HotKeyStorm,
    ModulatedPoissonProcess,
    PoissonProcess,
    ThinkTimeProcess,
)

__all__ = [
    "CTRDataset",
    "KGDataset",
    "GraphDataset",
    "make_trisk_graph",
    "make_payout_graph",
    "YCSBWorkload",
    "ZipfianGenerator",
    "UniformGenerator",
    "NeighborSampler",
    "DATASETS",
    "DatasetSpec",
    "table2_rows",
    "DiurnalProcess",
    "FlashCrowdProcess",
    "HotKeyStorm",
    "ModulatedPoissonProcess",
    "PoissonProcess",
    "ThinkTimeProcess",
]
