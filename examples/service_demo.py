#!/usr/bin/env python3
"""Tuning-as-a-service demo: two tenants, one shared substrate.

Starts a local :class:`~repro.campaign.service.TuningService` (loopback,
serial worker plane — the wire format and scheduling are identical with a
distributed fleet), then plays a two-tenant session over the pickle-free
client protocol:

1. **alice** submits a tuning job and streams its generation summaries;
2. **bob** submits the *identical* (source, family) job concurrently;
3. both fingerprints come back bit-for-bit equal to a solo run's, and the
   per-tenant accounting shows the dedupe economics: whoever ran second
   paid ~zero compile seconds — every candidate was already in the shared
   artifact cache;
4. a deliberately absurd submission bounces with a typed error code.

Run:  PYTHONPATH=src python examples/service_demo.py
"""

import threading

from repro.campaign.campaign import default_compiler_provider
from repro.campaign.service import ServiceConfig, TuningService
from repro.distrib.client import ServiceClient
from repro.distrib.errors import ServiceError
from repro.distrib.jobs import JobBudget
from repro.tuner import BinTuner, BinTunerConfig, BuildSpec

SOURCE = """
int table[32];
int checksum(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++) { table[i] = (i * 7) % 13 - 3; acc += table[i]; }
  return acc;
}
int main(void) { return checksum(32) & 0xff; }
"""

BUDGET = JobBudget(generations=4, population=6)


def main() -> int:
    # The reference: what a solo, in-process tuner produces for this spec.
    solo = BinTuner(
        default_compiler_provider("gcc"),
        BuildSpec(name="checksum", source=SOURCE),
        BinTunerConfig(**BUDGET.tuner_config_kwargs()),
    ).run()
    solo_fp = solo.database.fingerprint()
    print(f"solo run: best fitness {solo.best_fitness}")
    print(f"solo fingerprint: {solo_fp}\n")

    with TuningService(ServiceConfig(max_active_jobs=2)) as service:
        print(f"service listening on {service.address_string()}\n")
        alice = ServiceClient(service.address_string())
        bob = ServiceClient(service.address_string())

        job_a = alice.submit("alice", "checksum", SOURCE, "gcc",
                             generations=BUDGET.generations,
                             population=BUDGET.population)
        job_b = bob.submit("bob", "checksum", SOURCE, "gcc",
                           generations=BUDGET.generations,
                           population=BUDGET.population)
        print(f"alice submitted {job_a}, bob submitted {job_b} (same spec)\n")

        # Stream alice's generations while bob waits in a thread — both jobs
        # interleave through the fair-share turnstile underneath.
        done_b = {}
        waiter = threading.Thread(
            target=lambda: done_b.update(bob.wait(job_b)), daemon=True)
        waiter.start()
        print("alice's stream:")
        for event in alice.stream(job_a):
            if event["kind"] == "generation":
                data = event["data"]
                print(f"  gen {data['generation']}: "
                      f"evaluated {data['evaluated_total']:3d}, "
                      f"best {data['best_fitness']:.4f}, "
                      f"compile {data['compile_seconds']:.3f}s, "
                      f"artifact hits {data['artifact_hits']}")
            else:
                print(f"  [{event['kind']}]")
        waiter.join()
        row_a = alice.status(job_a)

        fp_a = row_a["result"]["fingerprint"]
        fp_b = done_b["result"]["fingerprint"]
        print(f"\nalice fingerprint: {fp_a}")
        print(f"bob   fingerprint: {fp_b}")
        print(f"parity with solo:  {fp_a == solo_fp and fp_b == solo_fp}\n")

        print("per-tenant accounting (the dedupe economics):")
        for tenant, row in alice.accounting().items():
            print(f"  {tenant:8s} candidates {row['candidates_evaluated']:3d}  "
                  f"compile {row['compile_seconds']:7.3f}s  "
                  f"artifact misses {row['artifact_misses']:3d}  "
                  f"hits {row['artifact_hits']:3d}")

        print("\na doomed submission bounces typed, nothing is enqueued:")
        try:
            alice.submit("alice", "doom", SOURCE, "gcc", generations=0)
        except ServiceError as exc:
            print(f"  rejected [{exc.code}]: {exc}")

        alice.close()
        bob.close()
    return 0 if fp_a == solo_fp == fp_b else 1


if __name__ == "__main__":
    raise SystemExit(main())
