"""Byte-identity golden digests for the interpreter.

Every registered workload runs at scale 0.03 with seeds 1 and 2 under six
configurations: uninstrumented baselines under ``RandomInterleaver(seed)``,
``RoundRobinScheduler(7)`` and ``ChaosScheduler(seed)``; a TL-Ad profile
with and without ``static_prune``; and a §5.3 marked run over all of
``SAMPLER_ORDER``.  Each digest hashes every :class:`RunResult` field
(``loop_iterations`` in its insertion order) and, for the logging runs,
the ``encode_log`` bytes plus every memory event's sampler mask.

The pinned table was produced by the nested-generator interpreter that the
flat per-thread interpreter replaced, by running this module as a script
on that commit::

    PYTHONPATH=src python tests/test_executor_golden.py

Any interpreter change that moves a step boundary, a cycle or an event
changes a digest.  Adding a workload means pinning its digests from a
commit known to be correct.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro import workloads
from repro.core.literace import LiteRace, run_baseline, run_marked
from repro.core.samplers import SAMPLER_ORDER
from repro.eventlog.encode import encode_log
from repro.eventlog.events import MemoryEvent
from repro.runtime.chaos import ChaosScheduler
from repro.runtime.scheduler import RoundRobinScheduler

SCALE = 0.03
SEEDS = (1, 2)


def _result_bytes(result) -> bytes:
    fields = [(f.name, getattr(result, f.name))
              for f in dataclasses.fields(result)]
    return repr(fields).encode()


def _log_bytes(log) -> bytes:
    masks = bytes(event.mask for event in log.events
                  if isinstance(event, MemoryEvent))
    return encode_log(log) + masks


def _configs(program, seed):
    yield "random", run_baseline(program, seed=seed), None
    yield "rr7", run_baseline(program, scheduler=RoundRobinScheduler(7)), None
    yield "chaos", run_baseline(program, scheduler=ChaosScheduler(seed)), None
    yield ("tl-ad",) + LiteRace("TL-Ad", seed=seed).profile(program)
    yield ("tl-ad-prune",) + LiteRace("TL-Ad", seed=seed,
                                      static_prune=True).profile(program)
    marked = run_marked(program, SAMPLER_ORDER, seed=seed)
    yield "marked", marked.run, marked.log


def digests(name: str, seed: int) -> dict:
    """Short sha256 digest of each configuration's run of ``name``."""
    program = workloads.build(name, seed=seed, scale=SCALE)
    out = {}
    for config, result, log in _configs(program, seed):
        h = hashlib.sha256(_result_bytes(result))
        if log is not None:
            h.update(_log_bytes(log))
        out[config] = h.hexdigest()[:16]
    return out


GOLDEN = {
    ('apache-1', 1): {
        'random': '32e57a44bfd206b1',
        'rr7': '5a1ddf7d33faf275',
        'chaos': '5e640697c585cfad',
        'tl-ad': '013bfc955ed7a95a',
        'tl-ad-prune': 'c9e9c05fea881eb4',
        'marked': '5af5ae524fa6d936',
    },
    ('apache-1', 2): {
        'random': '39631d1660b1ee82',
        'rr7': '5a1ddf7d33faf275',
        'chaos': 'ad854b4def721df5',
        'tl-ad': 'c76ab0c906bf75cf',
        'tl-ad-prune': '582c9a0627bdc5f9',
        'marked': 'b8983aa45c21b1be',
    },
    ('apache-2', 1): {
        'random': 'd48511bbde56104e',
        'rr7': 'caba3714aede8a46',
        'chaos': 'f6fb05ba4958f422',
        'tl-ad': '8ffed8ada087506b',
        'tl-ad-prune': '605053f3fbfe0eb5',
        'marked': '6ed2dd58c8ad0f56',
    },
    ('apache-2', 2): {
        'random': 'fcd76c9f83ceda2a',
        'rr7': 'caba3714aede8a46',
        'chaos': '9443c56db9cf8ca8',
        'tl-ad': '065708bbba34b6d0',
        'tl-ad-prune': 'd774952cbc05f721',
        'marked': 'dcb493bf5d5ef93a',
    },
    ('concrt-messaging', 1): {
        'random': '18486cbb49177e63',
        'rr7': 'eb008c4a07643096',
        'chaos': '1f261a11a315a36f',
        'tl-ad': '1af2e44a8cd0f1ab',
        'tl-ad-prune': 'c7348e0f84fa4343',
        'marked': 'd9bde085c9eef037',
    },
    ('concrt-messaging', 2): {
        'random': '50ffd2444bedee3a',
        'rr7': 'eb008c4a07643096',
        'chaos': '2146db00b884bcbb',
        'tl-ad': '57361e2045ec26f7',
        'tl-ad-prune': '9e3b95d9be12cb03',
        'marked': 'e481c6631c836249',
    },
    ('concrt-scheduling', 1): {
        'random': 'ded44d84e2bdfbc0',
        'rr7': '12a3c1e5dbce0b9d',
        'chaos': 'fa6a3f27cb389778',
        'tl-ad': 'ea6e23708612dad1',
        'tl-ad-prune': '211d8de73a01afa6',
        'marked': 'a212ab41be26c79e',
    },
    ('concrt-scheduling', 2): {
        'random': '4b045a07ff022f3c',
        'rr7': '12a3c1e5dbce0b9d',
        'chaos': '07f497ad839dfd6f',
        'tl-ad': '78098a76d0e3f608',
        'tl-ad-prune': '0ef729183007bf78',
        'marked': 'ad10ad652af2e399',
    },
    ('dryad', 1): {
        'random': 'e540da94816de566',
        'rr7': '92763dda3de26370',
        'chaos': 'e064ce6e9e0c03f1',
        'tl-ad': '06bb1a645be2c8dd',
        'tl-ad-prune': '6a64afb2dbf4b04e',
        'marked': '7089791ed66ce91e',
    },
    ('dryad', 2): {
        'random': '64a3947ca8d34ece',
        'rr7': '92763dda3de26370',
        'chaos': '478ef6d8262559ce',
        'tl-ad': '6c2d71b36669842d',
        'tl-ad-prune': '458cf1ec0e57fae3',
        'marked': 'd686204d29ed0209',
    },
    ('dryad-stdlib', 1): {
        'random': 'b5e3223eee29f47d',
        'rr7': 'fe0e3c6e952de49c',
        'chaos': '0cece1a7d31011a0',
        'tl-ad': 'eee1d17eee79d50f',
        'tl-ad-prune': '4948d48c96d4bd6c',
        'marked': '085bf63fa1f1ac2e',
    },
    ('dryad-stdlib', 2): {
        'random': 'eed28204570ee1ba',
        'rr7': 'fe0e3c6e952de49c',
        'chaos': '351fb64060f1a810',
        'tl-ad': 'a4584e363b821e82',
        'tl-ad-prune': '0c090a731173b3e3',
        'marked': 'ce6a6cd7fced5127',
    },
    ('firefox-render', 1): {
        'random': '208ab53c8c03df72',
        'rr7': 'bfa994ab84e14ce3',
        'chaos': '24ce41aa53c81005',
        'tl-ad': 'b5892d8a38a4bf7e',
        'tl-ad-prune': '75d0de2722567d64',
        'marked': '213310de204c4af9',
    },
    ('firefox-render', 2): {
        'random': '045cf6f7e7846287',
        'rr7': 'bfa994ab84e14ce3',
        'chaos': '24ce41aa53c81005',
        'tl-ad': 'b1130a603e3e76b4',
        'tl-ad-prune': '174d62d264c276b7',
        'marked': '3ee4b8ee3acdbd02',
    },
    ('firefox-start', 1): {
        'random': 'ae1d6d0b012dae65',
        'rr7': '9b05592c8e0b625c',
        'chaos': '3f3a227ca316eb1c',
        'tl-ad': 'aa038f8acfeb198e',
        'tl-ad-prune': '7c66b39ba90d3154',
        'marked': '79b4e43a656192c8',
    },
    ('firefox-start', 2): {
        'random': 'a7b39b80d9bd9c5e',
        'rr7': '9b05592c8e0b625c',
        'chaos': '3f52b42926f4e4f5',
        'tl-ad': '1156809d04a6be27',
        'tl-ad-prune': 'c6c403ea7b91886e',
        'marked': '0be4ee77fb70e924',
    },
    ('kv-store', 1): {
        'random': '74de7eb4d70e9449',
        'rr7': 'ebc50cef40fe25c8',
        'chaos': '8538638393fba7c2',
        'tl-ad': '177cba177c35f483',
        'tl-ad-prune': '18e1059d8550938b',
        'marked': 'ecd2799d2170ecb7',
    },
    ('kv-store', 2): {
        'random': '8538638393fba7c2',
        'rr7': 'ebc50cef40fe25c8',
        'chaos': '8538638393fba7c2',
        'tl-ad': 'e80056459d65c744',
        'tl-ad-prune': 'c3e11f8ddd083acf',
        'marked': '4491c23f1c67e4cf',
    },
    ('lflist', 1): {
        'random': 'b5e2f13ddf950b88',
        'rr7': 'c74135578dc19f40',
        'chaos': '8f718148f59cfc6c',
        'tl-ad': 'd5086b6180675b4d',
        'tl-ad-prune': '3abd1eb2760d0599',
        'marked': '842f1730e86c32a1',
    },
    ('lflist', 2): {
        'random': '8f718148f59cfc6c',
        'rr7': 'c74135578dc19f40',
        'chaos': '8f718148f59cfc6c',
        'tl-ad': '38f0e3c596b6e200',
        'tl-ad-prune': '23e8be13403cc114',
        'marked': '4d67659a6303d504',
    },
    ('lkrhash', 1): {
        'random': '83488469569e1d8f',
        'rr7': '0a8a4b3414433661',
        'chaos': '1fa2e3850f478f91',
        'tl-ad': '7863a3d3856c8831',
        'tl-ad-prune': 'cd39b1afcd368957',
        'marked': 'af48ce1194171f0d',
    },
    ('lkrhash', 2): {
        'random': '564a1b54a95662b3',
        'rr7': '0a8a4b3414433661',
        'chaos': '4b28c64a80b0b4a4',
        'tl-ad': 'b830fcb13d5fa364',
        'tl-ad-prune': '139a5f1e8e109ee2',
        'marked': 'f41d527e3e2974df',
    },
    ('parsec-like', 1): {
        'random': '4651d2211a575064',
        'rr7': '86010616998f4f93',
        'chaos': '4651d2211a575064',
        'tl-ad': 'a92df2ffc6ddf2c5',
        'tl-ad-prune': '0e345e3ab6976504',
        'marked': '5be898446940f87c',
    },
    ('parsec-like', 2): {
        'random': '4651d2211a575064',
        'rr7': '86010616998f4f93',
        'chaos': '726bec9c3a05e5a8',
        'tl-ad': 'a92df2ffc6ddf2c5',
        'tl-ad-prune': '0e345e3ab6976504',
        'marked': 'b1e6ddfe3e56d491',
    },
    ('pipeline', 1): {
        'random': 'dd106588b96d5c0d',
        'rr7': 'd2b9997fceeb1bd9',
        'chaos': '1deef9d2f11f9bcc',
        'tl-ad': '80da6481712b0277',
        'tl-ad-prune': 'f638ff875e427691',
        'marked': 'bb1827253f881d41',
    },
    ('pipeline', 2): {
        'random': '4e4b8c67effd1227',
        'rr7': 'd2b9997fceeb1bd9',
        'chaos': '8e8db32ee931240a',
        'tl-ad': '71aaf9620ba50b68',
        'tl-ad-prune': 'dd813d7f2ae7292f',
        'marked': '882d6660180fbb4f',
    },
    ('synthetic', 1): {
        'random': '28a54a525d8b94ab',
        'rr7': '336e35cb1768562b',
        'chaos': 'f2efa74b01c948ba',
        'tl-ad': 'd8914a04677a03c0',
        'tl-ad-prune': '6c4679801117bf65',
        'marked': '5d9fdb6ea5a98210',
    },
    ('synthetic', 2): {
        'random': 'c792dc56dd7b5ca4',
        'rr7': '9b62df3323c01ad9',
        'chaos': 'c792dc56dd7b5ca4',
        'tl-ad': 'c127e4abf9fb7c8b',
        'tl-ad-prune': '48c9f98510195d77',
        'marked': '7da0400d86600d2a',
    },
    ('web-server', 1): {
        'random': '2140687d489176a5',
        'rr7': '86d4c44a5e757196',
        'chaos': 'ff4ab0f969847220',
        'tl-ad': 'e908c87081bdd0ce',
        'tl-ad-prune': '3b56581a844ee70b',
        'marked': '94d9d018928b55c7',
    },
    ('web-server', 2): {
        'random': '19c754e85f5bf131',
        'rr7': '86d4c44a5e757196',
        'chaos': 'e36280289731ef91',
        'tl-ad': '54f038a6c54bdb40',
        'tl-ad-prune': '88679b30e0b29470',
        'marked': '07bebbe96b9344f0',
    },
    ('work-steal', 1): {
        'random': 'c6ac001cd6bb2352',
        'rr7': '051c3cfaf06d4513',
        'chaos': '672445e847a3bd79',
        'tl-ad': '2e017e1f2344c21f',
        'tl-ad-prune': 'b7d2795a48f21b35',
        'marked': '2b238c5d2b398c24',
    },
    ('work-steal', 2): {
        'random': 'c1f2b40b4c509317',
        'rr7': '051c3cfaf06d4513',
        'chaos': 'b25f0eb4f07e3f09',
        'tl-ad': 'df9bdf1287416652',
        'tl-ad-prune': '7d4bc9d09c672cbb',
        'marked': '79859b6a7b3ba719',
    },
}


def test_golden_covers_every_workload():
    assert sorted({name for name, _ in GOLDEN}) == workloads.names()
    assert {seed for _, seed in GOLDEN} == set(SEEDS)


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_digests_match_pinned(name, seed):
    assert digests(name, seed) == GOLDEN[name, seed]


if __name__ == "__main__":
    print("GOLDEN = {")
    for workload in workloads.names():
        for run_seed in SEEDS:
            row = digests(workload, run_seed)
            print(f"    ({workload!r}, {run_seed}): {{")
            for key, value in row.items():
                print(f"        {key!r}: {value!r},")
            print("    },", flush=True)
    print("}")
