"""ProQL: the provenance query language (Section 3) and its engines."""

from repro.proql.ast import Evaluation, PathExpr, Projection, Query, Step, TupleSpec
from repro.proql.graph_engine import GraphEngine, ProQLResult
from repro.proql.parser import parse_query
from repro.proql.schema_graph import SchemaGraph
from repro.proql.sql_engine import SQLEngine, SQLResult, SQLStats
from repro.proql.unfolding import UnfoldedRule, Unfolder

__all__ = [
    "Evaluation",
    "GraphEngine",
    "PathExpr",
    "ProQLResult",
    "Projection",
    "Query",
    "SQLEngine",
    "SQLResult",
    "SQLStats",
    "SchemaGraph",
    "Step",
    "TupleSpec",
    "UnfoldedRule",
    "Unfolder",
    "parse_query",
]
