"""Shared helpers for the two spark-submit entrypoints, ``run_all.py``
(T2-T10) and ``run_query.py`` (T1).

Jobs build their own session (they run standalone under spark-submit);
tests use the conftest ``spark`` fixture instead and call the same table
functions from ``repro.experiments`` and ``repro.experiments_compare``.
"""
from __future__ import annotations

import argparse
import os

from pyspark.sql import SparkSession


def job_session(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def base_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scenes", type=int, default=4, help="number of nuscenes_lite scenes")
    p.add_argument("--frames", type=int, default=240, help="frames per scene")
    p.add_argument("--seed", type=int, default=0)
    return p


def print_table(title: str, df) -> None:
    print(f"\n== {title} ==")
    print(df.to_string(index=False))
