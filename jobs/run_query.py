"""T1: run one Table 1 query end-to-end and print its outputs.

    spark-submit jobs/run_query.py --query Q6 --scenes 4 --setup S6
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from jobs._common import base_parser, job_session, print_table
from repro.core.queries import QUERIES, query
from repro.core.sflow import World
from repro.experiments import SETUPS
from repro.world.datasets import nuscenes_lite, skyquery_lite


def main(argv=None):
    p = base_parser("Run one Table 1 query end-to-end")
    p.add_argument("--query", default="Q6", choices=sorted(QUERIES))
    p.add_argument("--setup", default="S6", choices=sorted(SETUPS))
    args = p.parse_args(argv)
    spark = job_session(f"run_query-{args.query}")
    ds = (
        skyquery_lite(seed=args.seed, n_frames=args.frames)
        if args.query == "Q10"
        else nuscenes_lite(args.scenes, seed=args.seed, n_frames=args.frames)
    )
    w = World.from_dataset(spark, ds, optimizations=SETUPS[args.setup])
    w.filter(query(args.query))
    manifest, cost = w.save_videos()
    print_table(f"{args.query} snippet manifest ({args.setup})", manifest)
    print(f"\nplan: {w.plan.operators}")
    print(f"modeled cost: {cost}")


if __name__ == "__main__":
    main()
