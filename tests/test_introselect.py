"""functions/introselect.py must reproduce libstdc++'s std::nth_element
exactly — xapian's wildcard-cap and ELITE_SET subsets at tie boundaries
depend on it (api/queryinternal.cc select_most_frequent /
select_elite_set).

Golden vectors below were produced by running the real
std::nth_element(v.begin(), v.begin()+k-1, v.end(), key-descending) with
the system libstdc++ over (key, id) pairs and recording the FULL
post-call id order (not just the selected set)."""

import pytest

from markdown_query_ray.functions.introselect import nth_element

# exact arithmetic: a RuntimeWarning here is an engine bug, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GOLDEN = [
    (3, [1, 1, 0, 2, 0, 0, 0, 0, 0, 1],
     [3, 1, 9, 2, 4, 5, 6, 7, 8, 0]),
    (10, [3, 0, 3, 1, 3, 1, 2, 3, 1, 1, 3, 1, 2, 0, 0, 3, 2, 3, 0, 2, 0, 3,
          1, 2, 0, 3, 1, 3, 0, 2, 1, 1, 1, 3, 1, 1, 0, 0, 0, 1, 3, 3, 0, 3,
          0, 1, 2, 0, 3, 2],
     [40, 21, 17, 15, 25, 27, 33, 10, 4, 41, 2, 48, 46, 43, 7, 0, 23, 29,
      49, 19, 20, 18, 22, 16, 24, 14, 26, 13, 28, 12, 30, 31, 32, 11, 34,
      35, 36, 37, 38, 39, 9, 8, 42, 6, 44, 45, 5, 47, 3, 1]),
    (19, [1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1,
          0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1],
     [18, 36, 35, 32, 31, 30, 29, 25, 21, 20, 19, 0, 16, 14, 5, 9, 8, 7, 4,
      1, 10, 11, 22, 23, 24, 13, 26, 27, 28, 6, 17, 12, 3, 33, 34, 2, 15]),
]


def test_nth_element_matches_libstdcxx_golden():
    for k, keys, want_ids in GOLDEN:
        arr = [(key, i) for i, key in enumerate(keys)]
        nth_element(arr, k - 1, lambda a, b: a[0] > b[0])
        assert [i for _, i in arr] == want_ids, (k, keys)


def test_nth_element_partition_property():
    import random
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 120)
        k = rng.randint(1, n)
        keys = [rng.randint(0, 6) for _ in range(n)]
        arr = [(key, i) for i, key in enumerate(keys)]
        nth_element(arr, k - 1, lambda a, b: a[0] > b[0])
        # still a permutation, and a valid top-k partition by key
        assert sorted(i for _, i in arr) == list(range(n))
        head = sorted((key for key, _ in arr[:k]), reverse=True)
        want = sorted(keys, reverse=True)[:k]
        assert head == want
