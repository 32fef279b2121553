"""``repro store`` — gc/stats/verify for the on-disk artifact tiers.

Usage::

    repro store stats                     # every discoverable tier
    repro store stats --json
    repro store gc --max-bytes 64M        # bound every tier to 64 MiB
    repro store gc --cache .repro_cache --max-bytes 16M --dry-run
    repro store verify                    # end-to-end digest checks
    repro store verify --repair           # quarantine what fails

Tiers are discovered from the usual knobs: ``--cache`` (default
``REPRO_CACHE`` or ``.repro_cache``), ``--jobs-dir`` (default
``.repro_jobs``), ``--checkpoint-dir`` (default
``REPRO_CHECKPOINT_DIR``). A default directory that does not exist is
skipped; a directory named on the command line must exist. Each tier
is built from its owner's definition, so ``gc`` pins and ``verify``
judges exactly what the code that writes the tier would: results
through :class:`~repro.store.ArtifactStore`, manifests through
:func:`~repro.service.store.manifest_store`, checkpoints through
:func:`~repro.sim.checkpoint.checkpoint_store`. ``gc`` never touches
pinned entries (in-flight checkpoints, manifests not yet finished);
``verify`` exits 1 when problems remain so CI can gate on store health.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.experiments.runner import DEFAULT_CACHE_DIR
from repro.service.store import DEFAULT_STATE_DIR, manifest_store
from repro.sim.checkpoint import ENV_CHECKPOINT_DIR, checkpoint_store
from repro.store.atomic import format_size, parse_size
from repro.store.cas import ArtifactStore


def discover_tiers(cache_dir: Optional[str], jobs_dir: Optional[str],
                   checkpoint_dir: Optional[str],
                   budget: Optional[int] = None) -> List[object]:
    """Stores for every tier whose directory exists.

    A directory named here must exist (``off`` names no cache); an
    unnamed tier falls back to its default directory, skipped when
    absent.
    """
    missing = [d for d in (cache_dir, jobs_dir, checkpoint_dir)
               if d and d.lower() != "off" and not Path(d).is_dir()]
    if missing:
        raise SystemExit("repro store: no such directory: "
                         + ", ".join(missing))
    cache_dir = cache_dir or os.environ.get("REPRO_CACHE") or DEFAULT_CACHE_DIR
    builders = (
        (None if cache_dir.lower() == "off" else cache_dir,
         lambda d: ArtifactStore(d, budget_bytes=budget)),
        (jobs_dir or DEFAULT_STATE_DIR,
         lambda d: manifest_store(d, budget)),
        (checkpoint_dir or os.environ.get(ENV_CHECKPOINT_DIR),
         lambda d: checkpoint_store(d, budget)),
    )
    return [build(directory) for directory, build in builders
            if directory and Path(directory).is_dir()]


def _parse_common(prog: str, argv: List[str], extra=None
                  ) -> Tuple[argparse.Namespace, List[object]]:
    parser = argparse.ArgumentParser(prog=prog)
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="result-cache directory (default REPRO_CACHE "
                             "or .repro_cache)")
    parser.add_argument("--jobs-dir", default=None, metavar="DIR",
                        help="job-manifest directory (default .repro_jobs)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="checkpoint directory (default "
                             "REPRO_CHECKPOINT_DIR)")
    parser.add_argument("--json", action="store_true")
    if extra:
        extra(parser)
    args = parser.parse_args(argv)
    budget = parse_size(getattr(args, "max_bytes", None))
    tiers = discover_tiers(args.cache, args.jobs_dir, args.checkpoint_dir,
                           budget=budget)
    return args, tiers


def cmd_store(argv: List[str]) -> int:
    if not argv or argv[0] not in ("stats", "gc", "verify"):
        print("usage: repro store {stats|gc|verify} [--cache DIR] "
              "[--jobs-dir DIR] [--checkpoint-dir DIR] ...",
              file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "stats":
        return _cmd_stats(rest)
    if command == "gc":
        return _cmd_gc(rest)
    return _cmd_verify(rest)


def _cmd_stats(argv: List[str]) -> int:
    args, tiers = _parse_common("repro store stats", argv)
    stats = [tier.stats() for tier in tiers]
    if args.json:
        print(json.dumps(stats, indent=1))
        return 0
    if not stats:
        print("no artifact stores found (nothing cached yet?)")
        return 0
    for record in stats:
        print(f"{record['tier']:<12} {record['directory']}: "
              f"{record['entries']} entries, "
              f"{format_size(record['bytes'])} "
              f"(budget {format_size(record['budget_bytes'])}, "
              f"{record['pinned']} pinned)")
    return 0


def _cmd_gc(argv: List[str]) -> int:
    def extra(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--max-bytes", default=None, metavar="SIZE",
                            help="per-tier byte budget (e.g. 64M); LRU-"
                                 "evicts unpinned entries past it")
        parser.add_argument("--dry-run", action="store_true",
                            help="report what would be evicted, touch "
                                 "nothing")

    args, tiers = _parse_common("repro store gc", argv, extra)
    reports = [tier.gc(dry_run=args.dry_run) for tier in tiers]
    if args.json:
        print(json.dumps(reports, indent=1))
        return 0
    for report in reports:
        verb = "would evict" if args.dry_run else "evicted"
        print(f"{report['tier']:<12} {format_size(report['bytes_before'])} "
              f"-> {format_size(report['bytes_after'])} "
              f"(budget {format_size(report['budget'])}); "
              f"{verb} {len(report['evicted'])} of "
              f"{report['entries_before']} entries, "
              f"{report['pinned_kept']} pinned kept")
    return 0


def _cmd_verify(argv: List[str]) -> int:
    def extra(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--repair", action="store_true",
                            help="quarantine failing entries so the next "
                                 "run recomputes them cleanly")

    args, tiers = _parse_common("repro store verify", argv, extra)
    total = 0
    payload = []
    for tier in tiers:
        problems = tier.verify(repair=args.repair)
        total += len(problems)
        payload.append({"tier": tier.tier,
                        "directory": str(tier.directory),
                        "problems": problems})
        if not args.json:
            status = "ok" if not problems else f"{len(problems)} problem(s)"
            print(f"{tier.tier:<12} {tier.directory}: {status}")
            for problem in problems:
                print(f"  {problem}")
    if args.json:
        print(json.dumps(payload, indent=1))
    return 1 if total else 0
