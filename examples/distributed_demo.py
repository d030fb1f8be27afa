#!/usr/bin/env python3
"""Distributed campaign demo: a coordinator, joining workers, one crash.

Runs the same two-program campaign three ways and shows the fingerprints
agree bit-for-bit:

1. serially, in-process (the reference run);
2. on two worker *processes* that join the coordinator's ``serve_workers``
   address on loopback — one of which is started with ``--max-batches`` so
   it crashes mid-run, exercising the bounded re-dispatch path —
   interrupted after the first program;
3. resumed from the checkpoint on a hybrid fleet: two local sessions the
   pool forks itself (``workers=2``) plus one fresh joining worker.

The workers here are local subprocesses for the demo's sake; they connect
over TCP and would behave identically from another machine (point
``--connect`` at the coordinator's address).

Run:  PYTHONPATH=src python examples/distributed_demo.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import repro
from repro.campaign import Campaign, CampaignConfig, ProgramJob, SharedWorkerPool
from repro.tuner import BinTunerConfig, GAParameters

JOBS = [ProgramJob("llvm", "462.libquantum"), ProgramJob("llvm", "429.mcf")]

#: Wherever this interpreter found ``repro``, the workers must find it too.
REPRO_PATH = str(Path(repro.__file__).resolve().parents[1])


def make_config(checkpoint_dir=None, serve_workers=None) -> CampaignConfig:
    return CampaignConfig(
        tuner=BinTunerConfig(
            max_iterations=40, ga=GAParameters(population_size=10), stall_window=20
        ),
        serve_workers=serve_workers,
        checkpoint_dir=checkpoint_dir,
    )


def spawn_worker(address: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPRO_PATH + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.distrib.worker",
         "--connect", address, "--quiet", *extra],
        env=env,
    )


def drain(pool: SharedWorkerPool, workers) -> None:
    pool.close()  # sends Shutdown; healthy workers exit 0
    for worker in workers:
        try:
            worker.wait(timeout=10)
        except subprocess.TimeoutExpired:
            worker.kill()


def main() -> None:
    print("== reference: serial in-process campaign")
    serial = Campaign(JOBS, make_config()).run()
    print(f"  fingerprint: {serial.fingerprint()[:16]}…")

    checkpoint = Path(tempfile.mkdtemp(prefix="distributed-demo-"))
    try:
        print("\n== distributed: coordinator + 2 joining loopback workers "
              "(one crashes mid-run), interrupted after program 1")
        pool = SharedWorkerPool(serve_workers="127.0.0.1:0")
        address = pool.address_string()
        print(f"  coordinator on {address}")
        workers = [
            spawn_worker(address),
            # This one dies without replying after 2 batches — a machine
            # crash mid-generation, from the campaign's point of view.
            spawn_worker(address, "--max-batches", "2"),
        ]
        pool.wait_for_workers(2, timeout=60)
        first = Campaign(JOBS, make_config(checkpoint, address)).run(limit=1, pool=pool)
        drain(pool, workers)
        statuses = [worker.returncode for worker in workers]
        print(f"  interrupted: {first.interrupted}; worker exit statuses: {statuses}")
        print(f"  checkpointed {first.database.total_records()} records "
              f"(worker loss re-dispatched, nothing lost)")

        print("\n== resume from the checkpoint on 2 local sessions + 1 joining worker")
        pool = SharedWorkerPool(2, serve_workers="127.0.0.1:0")
        address = pool.address_string()
        workers = [spawn_worker(address)]
        pool.wait_for_workers(3, timeout=60)
        resumed = Campaign(JOBS, make_config(checkpoint, address)).run(pool=pool)
        drain(pool, workers)
        print(f"  {sum(p.resumed for p in resumed.programs)} program(s) restored, "
              f"{sum(not p.resumed for p in resumed.programs)} tuned live")
        print(f"  fingerprint: {resumed.fingerprint()[:16]}…")
        identical = resumed.fingerprint() == serial.fingerprint()
        print(f"  distributed+crash+resume == serial (records, order, fingerprint): "
              f"{identical}")
        assert identical
    finally:
        shutil.rmtree(checkpoint, ignore_errors=True)


if __name__ == "__main__":
    main()
