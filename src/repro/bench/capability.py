"""Table I: framework capability matrix.

The paper's Table I compares popular open-source frameworks along task
coverage (DLRM / GNN / KGE), storage properties (NoSQL interface, disk
support), bounded staleness (BS), extensibility (Ext) and reusability
(Reu).  The matrix is reproduced verbatim; the MLKV row is additionally
*checked against this codebase* — each claimed capability maps to a
concrete API that the capability test exercises.
"""

from __future__ import annotations

_COLUMNS = ("DLRM", "GNN", "KGE", "NoSQL", "Disk", "BS", "Ext", "Reu")

#: Verbatim from paper Table I ("–" rendered as False; HugeCTR's Disk
#: support is inference-only and PyG/DGL's disk paths are partial, which
#: the paper marks with a dash).
CAPABILITY_MATRIX: dict[str, dict[str, bool]] = {
    "PERSIA": dict(zip(_COLUMNS, (True, False, False, False, False, True, False, False))),
    "AIBox": dict(zip(_COLUMNS, (True, False, False, False, True, False, False, False))),
    "HugeCTR": dict(zip(_COLUMNS, (True, False, False, True, False, False, False, False))),
    "PyG": dict(zip(_COLUMNS, (False, True, True, True, False, False, False, False))),
    "PBG": dict(zip(_COLUMNS, (False, False, True, False, True, False, False, False))),
    "DGL(-KE)": dict(zip(_COLUMNS, (False, True, True, False, False, False, False, False))),
    "Hetu": dict(zip(_COLUMNS, (True, True, True, False, True, False, True, False))),
    "MLKV": dict(zip(_COLUMNS, (True, True, True, True, True, True, True, True))),
}


def table1_rows() -> list[dict]:
    rows = []
    for framework, capabilities in CAPABILITY_MATRIX.items():
        row = {"Framework": framework}
        for column in _COLUMNS:
            row[column] = "Y" if capabilities[column] else ""
        rows.append(row)
    return rows


def mlkv_capability_evidence() -> dict[str, str]:
    """Maps each MLKV capability claim to the API that implements it."""
    return {
        "DLRM": "repro.train.DLRMTrainer over repro.core.EmbeddingTables",
        "GNN": "repro.train.GNNTrainer over repro.core.EmbeddingTables",
        "KGE": "repro.train.KGETrainer over repro.core.EmbeddingTables",
        "NoSQL": "repro.core.MLKV.{get,put,delete} (KVStore interface)",
        "Disk": "repro.kv.faster.HybridLog file-backed regions",
        "BS": "repro.core.MLKV staleness_bound + vector clocks",
        "Ext": "repro.kv.api.KVStore — engines are pluggable via one interface",
        "Reu": "same EmbeddingTables facade drives all three task trainers",
    }
