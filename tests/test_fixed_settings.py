"""Settings that only tests set are module constants: passing one of
the old keywords is refused, and each constant holds the value every
other caller used."""

import pytest

from repro.bench import calibrate
from repro.cluster import Cluster
from repro.core import codec, skew, sort
from repro.mpi import COMET, World
from repro.sched.scheduler import (
    MIN_SCALE_RANKS,
    RESERVE,
    ScalingPolicy,
    SchedJob,
    Scheduler,
)
from repro.serve.tenants import TenantQuota
from repro.storage import errors
from repro.stream import demo

#: ``(callable, positional arguments, removed keyword)``: the
#: arguments only need to bind, the call never runs.  The combiner's
#: bucket budget is ``tests/test_core_combiner.py``'s.
REMOVED = [
    (SchedJob, ("job", None), "degradable"),
    (Scheduler, (None,), "reserve"),
    (ScalingPolicy, (), "min_ranks"),
    (ScalingPolicy, (), "jobs_per_rank"),
    (TenantQuota, (), "base_priority"),
    (errors.retrying, (None, None), "attempts"),
    (errors.retrying, (None, None), "base_delay"),
    (errors.retrying, (None, None), "factor"),
    (sort.global_sort, (None,) * 5, "oversample"),
    (World(1).run, (None,), "rank_args"),
    (demo.make_doc_stream, (), "docs_per_batch"),
    (demo.make_doc_stream, (), "words_per_doc"),
    (demo.make_click_stream, (), "nusers"),
    (demo.make_click_stream, (), "clicks_per_batch"),
    (demo.make_click_stream, (), "late_every"),
    (skew.fold_by_key, (None,) * 5, "sample_records"),
    (calibrate.calibrate, (None,), "sample_bytes"),
    (Cluster, (COMET, 1), "pfs"),
]


@pytest.mark.parametrize("fn, args, keyword", REMOVED,
                         ids=[keyword for _, _, keyword in REMOVED])
def test_removed_keyword_is_refused(fn, args, keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword.*{keyword}"):
        fn(*args, **{keyword: 1})


def test_zlib_codec_takes_no_level():
    # Its one setting gone, the codec takes no arguments at all.
    with pytest.raises(TypeError, match="ZlibCodec.. takes no arguments"):
        codec.ZlibCodec(level=1)


def test_constants_hold_the_old_defaults():
    assert (RESERVE, MIN_SCALE_RANKS) == (0.1, 1)
    assert (errors.DEFAULT_RETRY_ATTEMPTS, errors.DEFAULT_RETRY_BASE_DELAY,
            errors.DEFAULT_RETRY_FACTOR) == (4, 1e-3, 2.0)
    assert sort.DEFAULT_OVERSAMPLE == 8
    assert (demo.DOCS_PER_BATCH, demo.WORDS_PER_DOC) == (4, 12)
    assert (demo.CLICK_USERS, demo.CLICKS_PER_BATCH,
            demo.LATE_EVERY) == (6, 10, 7)
    assert skew.SAMPLE_RECORDS == 4096
    assert calibrate.SAMPLE_PAGES == 8
    assert codec.ZLIB_LEVEL == 6
